//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use ipt_core::json::Json;

/// End-to-end metrics (untraced run): name and unit. These are gated.
///
/// The host is shared: its speed drifts by a quarter over minutes, and
/// under contention thread wake-ups stall for milliseconds. Raw
/// throughput, latency and tails cannot hold a bound there, so the gate
/// takes `frac_of_copy`, a median of per-call ratios to a copy of the
/// same bytes timed in the same run just before each call.
pub const END_TO_END: [(&str, &str); 3] = [
    ("frac_of_copy", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Decomposition phases reported per phase, in C2R order.
pub const PHASES: [&str; 4] = ["pre_rotate", "row_shuffle", "col_shuffle", "post_rotate"];

/// Row-shuffle kernel tiers reported by hit count.
pub const KERNELS: [&str; 3] = ["scalar", "block4", "block8"];

/// Per-layer metrics (traced run): name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("pool.dispatch_us", "us"),
        ("pool.tasks_per_call", "count"),
        ("pool.chunks_per_call", "count"),
        ("pool.scratch_reuse_frac", "ratio"),
        ("pool.worker_chunk_spread", "ratio"),
        ("pool.panics_contained", "count"),
        ("pool.retries", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for p in PHASES {
        v.push((format!("parallel.{p}.share"), "ratio"));
        v.push((format!("parallel.{p}.gbps"), "GB/s"));
        v.push((format!("parallel.{p}.frac_of_copy"), "ratio"));
    }
    v.push(("parallel.unattributed_share".to_string(), "ratio"));
    v.push(("parallel.sched.imbalance".to_string(), "ratio"));
    for k in KERNELS {
        v.push((format!("parallel.kernel.{k}.hits"), "count"));
    }
    for (n, u) in [
        ("core.seq_gbps", "GB/s"),
        ("parallel.scaling_x", "ratio"),
        ("core.erased_gbps", "GB/s"),
        ("aos.to_soa_ms", "ms"),
        ("aos.to_aos_ms", "ms"),
        ("cli.read_ms", "ms"),
        ("cli.transpose_ms", "ms"),
        ("cli.write_ms", "ms"),
        ("cli.process_ms", "ms"),
        ("ref.copy_gbps", "GB/s"),
        ("ref.gustavson_gbps", "GB/s"),
        ("model.divergence", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Order `measured` `(name, value)` pairs by `spec`. Spec metrics the
/// run could not measure (their layer is not on the workload's path)
/// read 0 and are returned by name as the second element.
///
/// # Panics
///
/// Panics on a measured name missing from `spec`: a benchmark bug.
pub fn assemble(
    spec: &[(String, &'static str)],
    measured: &[(String, f64)],
) -> (Vec<Metric>, Vec<String>) {
    for (name, _) in measured {
        assert!(
            spec.iter().any(|(n, _)| n == name),
            "metric {name} is not in the benchmark's metric list"
        );
    }
    let mut absent = Vec::new();
    let metrics = spec
        .iter()
        .map(|(name, unit)| {
            let value = measured.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
            if value.is_none() {
                absent.push(name.clone());
            }
            Metric {
                name: name.clone(),
                value: value.unwrap_or(0.0),
                unit,
            }
        })
        .collect();
    (metrics, absent)
}

/// The one-line JSON result:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
/// Fails on a non-finite value, which has no JSON encoding.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    // `render` indents; strings escape their own newlines, so dropping
    // line breaks and indentation leaves the same document on one line.
    let pretty = doc.render_checked()?;
    Ok(pretty.lines().map(str::trim_start).collect())
}
