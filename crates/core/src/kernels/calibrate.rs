//! Per-host kernel calibration: measure the crossovers, remember them.
//!
//! [`super::select_auto`] encodes the scalar/block8 crossover points as
//! constants tuned on one box. The run structure that motivates them
//! (runs average `c/3` columns, contiguous when `b == 1`) is a property
//! of the *shape*, but where blocking starts to pay is a property of the
//! *machine* — vector width, store-forwarding latency, how well the
//! compiler unrolled the strip loop. In the empirical
//! autotuning tradition of ATLAS and FFTW, this module lets the machine
//! measure its own crossovers once and remember them:
//!
//! * [`probe`] runs a short microprobe — every kernel on a ladder of
//!   synthetic [`C2rParams`] shapes spanning the `c`/`b` space (the
//!   `b == 1` memcpy regime and the strided `b > 1` regime, `c` from the
//!   coprime limit up through run lengths long past every static
//!   threshold) — timed with the same monotonic [`std::time::Instant`]
//!   clock the bench harness uses, and records the measured-fastest
//!   kernel per rung as a [`CalibrationProfile`].
//! * The profile persists as a small JSON document (the workspace's
//!   zero-dep [`crate::json`] machinery) at a cache path: the
//!   `IPT_CALIBRATION` environment variable if set (`off`/`none`/`0`
//!   disables persistence), else `target/ipt-calibration.json` when run
//!   inside a cargo tree, else the system temp dir — so repeat processes
//!   skip the probe.
//! * [`loaded`] lazily loads that profile once per process, and
//!   [`super::select`] consults it *between* the `IPT_KERNEL` override
//!   and the static heuristic. A missing file is silent; an unreadable
//!   or corrupt one warns once to stderr and falls back to
//!   [`super::select_auto`] — never a panic, and with no profile the
//!   dispatch behavior is byte-identical to the uncalibrated build.
//!
//! Lookup is piecewise-constant: a shape picks the rung of its `b` class
//! (`b == 1` vs `b > 1`) with the largest `c` not exceeding its own, so
//! on the probe-ladder shapes themselves the calibrated [`super::select`]
//! reproduces the measured winner exactly.
//!
//! The probe itself never runs implicitly — only `ipt-cli calibrate`
//! (or an explicit [`probe`] call) pays the measurement cost, keeping
//! library dispatch allocation- and surprise-free.

use super::{RowShuffleKernel, ShuffleDirection};
use crate::gcd::gcd;
use crate::index::C2rParams;
use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Schema tag stamped into every persisted profile.
pub const SCHEMA: &str = "ipt-calibration-v2";

/// Environment variable naming the profile cache path (`off`, `none`,
/// `0` or empty disable persistence and lazy loading entirely).
pub const ENV_PATH: &str = "IPT_CALIBRATION";

/// File name used under the default cache directory.
pub const DEFAULT_FILE: &str = "ipt-calibration.json";

/// A probe measurement must accumulate at least this much wall time
/// before its rate is trusted (the iteration count doubles until it
/// does), mirroring the bench harness's calibrated-batch approach.
pub const MIN_PROBE_NANOS: u64 = 200_000;

/// Hard cap on the doubling iteration count, so a broken (frozen) clock
/// cannot spin the probe forever.
const MAX_PROBE_ITERS: u64 = 1 << 20;

/// Repetitions per (shape, kernel); the best (minimum) rate wins, which
/// rejects one-off scheduling noise.
pub const PROBE_REPS: usize = 3;

/// Target working-set size per rung, in elements (`u64`), chosen to fit
/// comfortably in L1/L2 so the probe measures kernel overhead rather
/// than memory bandwidth — the regime where the kernels actually differ.
const TARGET_ELEMS: usize = 1 << 14;

/// One rung of the probe ladder: a synthetic shape plus the measured
/// per-kernel rates and the winner.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// Rows of the probed shape.
    pub m: usize,
    /// Columns of the probed shape.
    pub n: usize,
    /// `gcd(m, n)` — the run-length driver.
    pub c: usize,
    /// `n / c` — `1` selects the contiguous-run (memcpy) regime.
    pub b: usize,
    /// Best-of-reps nanoseconds per element, indexed like
    /// [`RowShuffleKernel::ALL`].
    pub nanos_per_elem: [f64; 2],
    /// The measured-fastest kernel on this rung (ties go to the earlier
    /// entry of [`RowShuffleKernel::ALL`], i.e. the simpler kernel).
    pub best: RowShuffleKernel,
}

/// A host's measured kernel crossovers: one [`ProbeResult`] per ladder
/// rung, covering both `b` classes.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    /// The per-rung measurements, in ladder order.
    pub probes: Vec<ProbeResult>,
}

/// The synthetic `(m, n)` probe ladder.
///
/// Two families, each holding total size near `TARGET_ELEMS` (16K
/// elements, L1/L2-resident):
///
/// * **`b == 1`** (contiguous runs): `n = c`, `m` a multiple of `n`,
///   for `c` in `{2, 4, .., 64}` — brackets the static `b == 1 && c >= 4`
///   threshold from both sides.
/// * **`b == 2`** (strided runs): `n = 2c`, `m` an *odd* multiple of `c`
///   (so `gcd(m, n)` stays exactly `c`), for `c` in `{1, 2, .., 128}` —
///   from the coprime one-element-run limit past the static `c >= 16`
///   threshold.
pub fn ladder() -> Vec<(usize, usize)> {
    let mut shapes = Vec::new();
    for c in [2usize, 4, 8, 16, 32, 64] {
        let k = (TARGET_ELEMS / (c * c)).max(2);
        shapes.push((k * c, c));
    }
    for c in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let mut k = (TARGET_ELEMS / (2 * c * c)).max(1);
        if k % 2 == 0 {
            k -= 1; // keep k odd so gcd(k * c, 2 * c) == c
        }
        shapes.push((k * c, 2 * c));
    }
    shapes
}

/// Run the microprobe with the real monotonic clock and default
/// repetitions. Takes a few milliseconds of pure compute; callers that
/// want the result cached should [`CalibrationProfile::save`] it to
/// [`resolve_path`].
pub fn probe() -> CalibrationProfile {
    let start = std::time::Instant::now();
    let mut clock = move || start.elapsed().as_nanos() as u64;
    probe_with(&mut clock, PROBE_REPS)
}

/// Run the microprobe against an injected nanosecond clock — the real
/// probe with `Instant`, deterministic tests with a scripted one.
///
/// Per rung, kernels are measured in [`RowShuffleKernel::ALL`] order;
/// each measurement reads the clock once before and once after its
/// iteration batch, which is the contract scripted clocks rely on.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn probe_with(clock: &mut dyn FnMut() -> u64, reps: usize) -> CalibrationProfile {
    assert!(reps >= 1, "probe needs at least one repetition");
    let mut probes = Vec::new();
    for (m, n) in ladder() {
        let p = C2rParams::new(m, n);
        let mut data: Vec<u64> = (0..(m * n) as u64).collect();
        let mut tmp = vec![0u64; n];
        let mut nanos_per_elem = [0f64; 2];
        for (slot, &kernel) in RowShuffleKernel::ALL.iter().enumerate() {
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                best = best.min(measure_once(clock, &mut data, &p, &mut tmp, kernel));
            }
            nanos_per_elem[slot] = best;
        }
        probes.push(ProbeResult {
            m,
            n,
            c: p.c,
            b: p.b,
            nanos_per_elem,
            best: best_kernel(&nanos_per_elem),
        });
    }
    CalibrationProfile { probes }
}

/// One timed measurement: double the iteration count until the batch
/// spans [`MIN_PROBE_NANOS`], then return nanoseconds per element.
fn measure_once(
    clock: &mut dyn FnMut() -> u64,
    data: &mut [u64],
    p: &C2rParams,
    tmp: &mut [u64],
    kernel: RowShuffleKernel,
) -> f64 {
    let elems = (p.m * p.n) as f64;
    let mut iters: u64 = 1;
    loop {
        let t0 = clock();
        for _ in 0..iters {
            super::row_shuffle(
                std::hint::black_box(&mut *data),
                p,
                tmp,
                kernel,
                ShuffleDirection::Inverse,
            );
        }
        let dt = clock().saturating_sub(t0);
        if dt >= MIN_PROBE_NANOS || iters >= MAX_PROBE_ITERS {
            return dt as f64 / (iters as f64 * elems);
        }
        iters *= 2;
    }
}

/// The argmin of a per-kernel rate array; ties prefer the earlier
/// (simpler) kernel.
fn best_kernel(nanos_per_elem: &[f64; 2]) -> RowShuffleKernel {
    let mut best = RowShuffleKernel::ALL[0];
    let mut best_ns = nanos_per_elem[0];
    for (slot, &kernel) in RowShuffleKernel::ALL.iter().enumerate().skip(1) {
        if nanos_per_elem[slot] < best_ns {
            best_ns = nanos_per_elem[slot];
            best = kernel;
        }
    }
    best
}

impl CalibrationProfile {
    /// The calibrated kernel choice for a shape: within the shape's `b`
    /// class (`b == 1` vs `b > 1`), the rung with the largest `c` not
    /// exceeding `p.c` decides; shapes below every rung clamp to the
    /// smallest rung. A profile missing a whole class (possible only for
    /// hand-built profiles — [`CalibrationProfile::from_json`] requires
    /// both) defers to [`super::select_auto`].
    pub fn select(&self, p: &C2rParams) -> RowShuffleKernel {
        let contiguous = p.b == 1;
        let mut best_le: Option<&ProbeResult> = None;
        let mut smallest: Option<&ProbeResult> = None;
        for r in self.probes.iter().filter(|r| (r.b == 1) == contiguous) {
            if smallest.is_none_or(|s| r.c < s.c) {
                smallest = Some(r);
            }
            if r.c <= p.c && best_le.is_none_or(|b| r.c > b.c) {
                best_le = Some(r);
            }
        }
        match best_le.or(smallest) {
            Some(r) => r.best,
            None => super::select_auto(p),
        }
    }

    /// Serialize to the persisted document shape (schema
    /// [`SCHEMA`]), insertion-ordered for byte-stable output.
    pub fn to_json(&self) -> Json {
        let probes = self
            .probes
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("m", Json::Num(r.m as f64)),
                    ("n", Json::Num(r.n as f64)),
                    ("c", Json::Num(r.c as f64)),
                    ("b", Json::Num(r.b as f64)),
                    ("scalar_ns", Json::Num(r.nanos_per_elem[0])),
                    ("block8_ns", Json::Num(r.nanos_per_elem[1])),
                    ("best", Json::Str(r.best.name().to_string())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("probes", Json::Arr(probes)),
        ])
    }

    /// Deserialize and *validate* a persisted document: the schema tag,
    /// every per-rung field, `c`/`b` consistency with `m`/`n`, and that
    /// both `b` classes are covered, so a validated profile can always
    /// answer [`CalibrationProfile::select`] from measurements.
    pub fn from_json(doc: &Json) -> Result<CalibrationProfile, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            other => return Err(format!("schema is {other:?}, expected {SCHEMA:?}")),
        }
        let raw = doc
            .get("probes")
            .and_then(Json::as_arr)
            .ok_or("missing probes array")?;
        if raw.is_empty() {
            return Err("empty probes array".to_string());
        }
        let mut probes = Vec::with_capacity(raw.len());
        for (i, entry) in raw.iter().enumerate() {
            probes.push(probe_from_json(entry).map_err(|e| format!("probes[{i}]: {e}"))?);
        }
        let has = |contiguous: bool| probes.iter().any(|r| (r.b == 1) == contiguous);
        if !has(true) || !has(false) {
            return Err("probes must cover both the b == 1 and b > 1 classes".to_string());
        }
        Ok(CalibrationProfile { probes })
    }

    /// Parse a profile from its rendered text.
    pub fn parse(text: &str) -> Result<CalibrationProfile, String> {
        CalibrationProfile::from_json(&Json::parse(text)?)
    }

    /// Render the persisted form (see [`CalibrationProfile::to_json`]).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Write the profile to `path`, refusing non-finite rates.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let text = self
            .to_json()
            .render_checked()
            .map_err(|e| format!("profile has no JSON encoding: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// Read and validate a profile from `path`.
    pub fn load(path: &Path) -> Result<CalibrationProfile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        CalibrationProfile::parse(&text)
    }

    /// A short content fingerprint (FNV-1a over the rendered form) used
    /// to stamp bench reports, so history can tell which profile decided
    /// dispatch for a run.
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }
}

/// Parse one ladder rung, recomputing `c` and `b` from `m`/`n` and
/// rejecting entries whose stored values disagree (a cheap corruption
/// tripwire for hand-edited files).
fn probe_from_json(doc: &Json) -> Result<ProbeResult, String> {
    let field = |key: &str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("missing or non-integer {key:?}"))
    };
    let m = field("m")? as usize;
    let n = field("n")? as usize;
    if m == 0 || n == 0 {
        return Err("zero dimension".to_string());
    }
    let c = gcd(m as u64, n as u64) as usize;
    let b = n / c;
    if field("c")? as usize != c || field("b")? as usize != b {
        return Err(format!("stored c/b disagree with m = {m}, n = {n}"));
    }
    let mut nanos_per_elem = [0f64; 2];
    for (slot, kernel) in RowShuffleKernel::ALL.iter().enumerate() {
        let key = format!("{}_ns", kernel.name());
        let x = doc
            .get(&key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing or non-numeric {key:?}"))?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("{key:?} is not a finite non-negative rate"));
        }
        nanos_per_elem[slot] = x;
    }
    let best = match doc.get("best").and_then(Json::as_str) {
        Some(s) => match RowShuffleKernel::parse(s) {
            Ok(Some(kernel)) => kernel,
            _ => return Err(format!("best is {s:?}, expected a concrete kernel name")),
        },
        None => return Err("missing best".to_string()),
    };
    Ok(ProbeResult {
        m,
        n,
        c,
        b,
        nanos_per_elem,
        best,
    })
}

/// The profile cache path: `IPT_CALIBRATION` if set (`None` when it
/// spells `off`/`none`/`0`/empty), else `target/ipt-calibration.json`
/// when a `target/` directory exists under the working directory (the
/// cargo layout the ISSUE calls the "target/history dir"), else the
/// system temp dir.
pub fn resolve_path() -> Option<PathBuf> {
    match std::env::var(ENV_PATH) {
        Ok(raw) => {
            let v = raw.trim();
            match v {
                "" | "off" | "none" | "0" => None,
                _ => Some(PathBuf::from(v)),
            }
        }
        Err(_) => {
            let target = Path::new("target");
            if target.is_dir() {
                Some(target.join(DEFAULT_FILE))
            } else {
                Some(std::env::temp_dir().join(DEFAULT_FILE))
            }
        }
    }
}

/// The lazily-loaded process-wide profile consulted by
/// [`super::select`]: read once from [`resolve_path`] on first use.
/// A missing file (or disabled persistence) is silently `None`; an
/// unreadable or corrupt file warns once to stderr and is `None` —
/// dispatch then falls back to [`super::select_auto`], never panics.
pub fn loaded() -> Option<&'static CalibrationProfile> {
    static LOADED: OnceLock<Option<CalibrationProfile>> = OnceLock::new();
    LOADED
        .get_or_init(|| {
            let path = resolve_path()?;
            match std::fs::read_to_string(&path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => {
                    eprintln!(
                        "ipt: ignoring unreadable calibration profile {}: {e} \
                         (using the static heuristic)",
                        path.display()
                    );
                    None
                }
                Ok(text) => match CalibrationProfile::parse(&text) {
                    Ok(profile) => Some(profile),
                    Err(e) => {
                        eprintln!(
                            "ipt: ignoring corrupt calibration profile {}: {e} \
                             (using the static heuristic)",
                            path.display()
                        );
                        None
                    }
                },
            }
        })
        .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted clock: measurements read the clock twice (before and
    /// after the batch), so pair `2k`/`2k + 1` yields the `k`-th delta.
    /// Deltas at or above [`MIN_PROBE_NANOS`] keep the batch at one
    /// iteration, making the probe order fully deterministic.
    fn scripted_clock(mut delta_for_pair: impl FnMut(usize) -> u64) -> impl FnMut() -> u64 {
        let mut calls = 0usize;
        move || {
            let pair = calls / 2;
            let value = if calls % 2 == 0 {
                0
            } else {
                delta_for_pair(pair)
            };
            calls += 1;
            value
        }
    }

    #[test]
    fn ladder_spans_both_b_classes_with_exact_gcds() {
        let shapes = ladder();
        let mut contiguous = 0;
        let mut strided = 0;
        for (m, n) in shapes {
            let p = C2rParams::new(m, n);
            if p.b == 1 {
                contiguous += 1;
            } else {
                assert_eq!(p.b, 2, "{m}x{n}");
                strided += 1;
            }
        }
        assert!(contiguous >= 4, "need rungs across the b == 1 thresholds");
        assert!(strided >= 6, "need rungs across the b > 1 thresholds");
        // The strided family must include the coprime limit.
        assert!(ladder().iter().any(|&(m, n)| gcd(m as u64, n as u64) == 1));
    }

    #[test]
    fn probe_with_scripted_clock_is_deterministic() {
        // Every pair: scalar slowest, block8 fastest.
        let deltas = [2 * MIN_PROBE_NANOS, MIN_PROBE_NANOS];
        let mut clock_a = scripted_clock(move |pair| deltas[pair % 2]);
        let mut clock_b = scripted_clock(move |pair| deltas[pair % 2]);
        let a = probe_with(&mut clock_a, 1);
        let b = probe_with(&mut clock_b, 1);
        assert_eq!(a, b);
        assert_eq!(a.probes.len(), ladder().len());
        for r in &a.probes {
            assert_eq!(r.best, RowShuffleKernel::Block8, "{}x{}", r.m, r.n);
            assert!(r.nanos_per_elem[0] > r.nanos_per_elem[1]);
        }
    }

    #[test]
    fn select_matches_the_measured_fastest_on_every_ladder_shape() {
        // Rotate the winner across rungs so the lookup is actually
        // consulted per rung rather than returning one global answer.
        let mut clock = scripted_clock(|pair| {
            let (rung, kernel_slot) = (pair / 2, pair % 2);
            if kernel_slot == rung % 2 {
                MIN_PROBE_NANOS
            } else {
                2 * MIN_PROBE_NANOS + kernel_slot as u64
            }
        });
        let profile = probe_with(&mut clock, 1);
        let winners: std::collections::HashSet<_> =
            profile.probes.iter().map(|r| r.best.name()).collect();
        assert_eq!(winners.len(), 2, "every kernel should win somewhere");
        for r in &profile.probes {
            let p = C2rParams::new(r.m, r.n);
            assert_eq!(profile.select(&p), r.best, "{}x{}", r.m, r.n);
        }
    }

    #[test]
    fn select_clamps_to_the_nearest_rung_per_class() {
        let deltas = [2 * MIN_PROBE_NANOS, MIN_PROBE_NANOS];
        let mut clock = scripted_clock(move |pair| deltas[pair % 2]);
        let profile = probe_with(&mut clock, 1);
        // 3x3 (b == 1, c == 3) sits below the smallest b == 1 rung
        // (c == 2 exists, so it resolves to the c == 2 rung's winner);
        // 5x7 (coprime, b == 7) uses the strided class.
        assert_eq!(
            profile.select(&C2rParams::new(3, 3)),
            RowShuffleKernel::Block8
        );
        assert_eq!(
            profile.select(&C2rParams::new(5, 7)),
            RowShuffleKernel::Block8
        );
        // Above every rung: the largest-c rung decides.
        assert_eq!(
            profile.select(&C2rParams::new(4096, 4096)),
            RowShuffleKernel::Block8
        );
    }

    #[test]
    fn profile_round_trips_through_the_text_format() {
        let deltas = [MIN_PROBE_NANOS, 5 * MIN_PROBE_NANOS];
        let mut clock = scripted_clock(move |pair| deltas[pair % 2]);
        let profile = probe_with(&mut clock, 2);
        let text = profile.render();
        let back = CalibrationProfile::parse(&text).unwrap();
        assert_eq!(back, profile);
        // Byte-stable: render -> parse -> render is the identity.
        assert_eq!(back.render(), text);
        assert_eq!(back.hash(), profile.hash());
    }

    #[test]
    fn hash_distinguishes_different_profiles() {
        let mut fast_scalar = scripted_clock(|pair| match pair % 2 {
            0 => MIN_PROBE_NANOS,
            _ => 2 * MIN_PROBE_NANOS,
        });
        let mut fast_block8 = scripted_clock(|pair| match pair % 2 {
            1 => MIN_PROBE_NANOS,
            _ => 2 * MIN_PROBE_NANOS,
        });
        let a = probe_with(&mut fast_scalar, 1);
        let b = probe_with(&mut fast_block8, 1);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn corrupt_documents_are_rejected_not_panicked_on() {
        let deltas = [MIN_PROBE_NANOS; 2];
        let mut clock = scripted_clock(move |pair| deltas[pair % 2]);
        let good = probe_with(&mut clock, 1).render();

        // A profile written before the 4-lane kernel was deleted: it
        // names `block4`, so it must be re-probed, never half-read.
        let v1 = "{\"schema\": \"ipt-calibration-v1\", \"probes\": [\
                  {\"m\": 8, \"n\": 2, \"c\": 2, \"b\": 1, \"scalar_ns\": 1.0, \
                  \"block4_ns\": 0.5, \"block8_ns\": 0.6, \"best\": \"block4\"}, \
                  {\"m\": 3, \"n\": 2, \"c\": 1, \"b\": 2, \"scalar_ns\": 1.0, \
                  \"block4_ns\": 2.0, \"block8_ns\": 2.5, \"best\": \"scalar\"}]}\n";

        // Truncation, wrong schema, missing fields, inconsistent c/b,
        // bogus kernel names, a missing b class, an old schema: all
        // errors, no panics.
        let cases: Vec<String> = vec![
            good[..good.len() / 2].to_string(),
            good.replace(SCHEMA, "ipt-calibration-v0"),
            good.replace("\"best\"", "\"beast\""),
            good.replace("\"scalar_ns\"", "\"scalar_xs\""),
            good.replace("\"c\": 2", "\"c\": 3"),
            good.replace("\"best\": \"scalar\"", "\"best\": \"avx512\""),
            good.replace("\"best\": \"scalar\"", "\"best\": \"auto\""),
            format!("{{\"schema\": \"{SCHEMA}\", \"probes\": []}}\n"),
            "not json at all".to_string(),
            v1.to_string(),
        ];
        for bad in cases {
            assert!(
                CalibrationProfile::parse(&bad).is_err(),
                "should reject: {bad:.60}"
            );
        }

        // A single-class profile parses field-wise but fails the class
        // coverage check.
        let profile = CalibrationProfile::parse(&good).unwrap();
        let one_class = CalibrationProfile {
            probes: profile
                .probes
                .iter()
                .filter(|r| r.b == 1)
                .cloned()
                .collect(),
        };
        assert!(CalibrationProfile::parse(&one_class.render()).is_err());
    }

    #[test]
    fn single_class_profile_defers_to_the_static_heuristic() {
        // Hand-built (not loadable) profile with only b == 1 rungs: a
        // strided shape must fall back to select_auto, not panic.
        let deltas = [MIN_PROBE_NANOS; 2];
        let mut clock = scripted_clock(move |pair| deltas[pair % 2]);
        let full = probe_with(&mut clock, 1);
        let one_class = CalibrationProfile {
            probes: full.probes.into_iter().filter(|r| r.b == 1).collect(),
        };
        let coprime = C2rParams::new(101, 103);
        assert_eq!(
            one_class.select(&coprime),
            super::super::select_auto(&coprime)
        );
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let deltas = [MIN_PROBE_NANOS, 2 * MIN_PROBE_NANOS];
        let mut clock = scripted_clock(move |pair| deltas[pair % 2]);
        let profile = probe_with(&mut clock, 1);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ipt-calibrate-rt-{}.json", std::process::id()));
        profile.save(&path).unwrap();
        let back = CalibrationProfile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, profile);
    }

    #[test]
    fn real_probe_produces_a_loadable_self_consistent_profile() {
        // The genuine Instant-clocked probe: rates must be finite and
        // positive, the document must validate, and select must agree
        // with the recorded winner on each rung (the acceptance
        // criterion, on real measurements).
        let profile = probe();
        let back = CalibrationProfile::parse(&profile.render()).unwrap();
        assert_eq!(back, profile);
        for r in &profile.probes {
            for &ns in &r.nanos_per_elem {
                assert!(ns.is_finite() && ns > 0.0, "{}x{}", r.m, r.n);
            }
            assert_eq!(profile.select(&C2rParams::new(r.m, r.n)), r.best);
        }
    }
}
