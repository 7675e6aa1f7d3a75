//! The environment stamp printed with every run, and the rule that
//! refuses end-to-end numbers from a run that measures another program.

/// Knobs that change what runs: checked mode (2–4.5× slower), armed
/// recovery journals (1.4–2×), a forced kernel and fault injection.
pub const REFUSED_VARS: [&str; 4] = ["IPT_CHECK", "IPT_RETRY", "IPT_KERNEL", "IPT_FAULT"];

/// Where and how a run happened.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Workers of the global pool.
    pub pool_threads: usize,
    /// `(level and type, size)` of every cache sysfs lists for cpu0.
    pub caches: Vec<(String, String)>,
    /// `"release"` or `"debug"`.
    pub profile: &'static str,
    /// Every `IPT_*` variable set, sorted.
    pub ipt_vars: Vec<(String, String)>,
}

impl EnvStamp {
    /// Stamp the current process.
    pub fn capture() -> EnvStamp {
        let mut ipt_vars: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("IPT_"))
            .collect();
        ipt_vars.sort();
        EnvStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: ipt_pool::num_threads(),
            caches: read_caches(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            ipt_vars,
        }
    }

    /// Why end-to-end metrics from this environment would mislead, if
    /// they would.
    pub fn refusal(&self) -> Option<String> {
        refusal(self.profile, &self.ipt_vars)
    }

    /// One `key=value` line for the run log.
    pub fn line(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let vars: Vec<String> = self
            .ipt_vars
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "env nproc={} pool_threads={} caches=[{}] profile={} ipt_vars=[{}]",
            self.nproc,
            self.pool_threads,
            caches.join(" "),
            self.profile,
            vars.join(" ")
        )
    }
}

/// The refusal rule: a debug build, or any of [`REFUSED_VARS`] set.
pub fn refusal(profile: &str, ipt_vars: &[(String, String)]) -> Option<String> {
    if profile != "release" {
        return Some(format!(
            "{profile} build: end-to-end metrics need a release build"
        ));
    }
    let set: Vec<&str> = ipt_vars
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| REFUSED_VARS.contains(k))
        .collect();
    (!set.is_empty()).then(|| {
        format!(
            "{} set: such a run measures a different program; unset to report end-to-end metrics",
            set.join(", ")
        )
    })
}

/// Cache levels of cpu0 from sysfs, e.g. `("L1d", "48K")`; empty where
/// sysfs is unavailable.
fn read_caches() -> Vec<(String, String)> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, f: &str| {
        std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for i in 0.. {
        let dir = base.join(format!("index{i}"));
        let (Ok(level), Ok(kind), Ok(size)) =
            (read(&dir, "level"), read(&dir, "type"), read(&dir, "size"))
        else {
            break;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        out.push((format!("L{level}{suffix}"), size));
    }
    out
}
