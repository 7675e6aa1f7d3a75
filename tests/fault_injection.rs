//! Fault-injection suite: every injected worker panic must be contained
//! as a structured [`TransposeAborted`] (never a process abort), and
//! every injected index skew must be caught by the disjointness checker
//! — across thread counts 1, 2 and 4.
//!
//! Requires the `fault-inject` feature (this target carries
//! `required-features` in `crates/ipt/Cargo.toml`):
//!
//! ```text
//! cargo test -p ipt --features fault-inject --test fault_injection
//! ```
//!
//! Faults are forced through [`faulty::force`] rather than `IPT_FAULT` so
//! each test picks its own mode; the env knob takes the same code path
//! (`faulty::parse_fault` has its own unit tests). The forced decisions
//! are deterministic per (site, item), so a given shape either injects or
//! doesn't — the tests assert the biconditional: injection happened if
//! and only if the call reported an abort.

use ipt::core::check::reference_transpose;
use ipt::core::index::C2rParams;
use ipt::core::kernels::faulty::{self, FaultMode};
use ipt::core::{permute, Layout, Scratch};
use ipt::parallel::batched::transpose_batched;
use ipt::parallel::{c2r_parallel, cache_aware, r2c_parallel, ParOptions, TransposeAborted};
use ipt::pool::{recovery, set_num_threads, stats, PoolError};
use std::sync::{Mutex, MutexGuard};

/// Serializes tests: forced fault mode, `IPT_CHECK`, the thread count and
/// the stats counters are all process-global.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Take the lock and make sure the disjointness checker is live before
/// the first parallel call initializes its `OnceLock` — skew injection
/// without the checker would be a genuine data race, not a test.
fn setup() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("IPT_CHECK", "1");
    guard
}

/// RAII reset so a failing assertion can't leak a forced mode into the
/// next test.
struct Forced;

impl Forced {
    fn new(mode: FaultMode) -> Forced {
        faulty::force(Some(mode));
        Forced
    }
}

impl Drop for Forced {
    fn drop(&mut self) {
        faulty::unforce();
    }
}

/// RAII recovery budget so a failing assertion can't leak an armed
/// `IPT_RETRY` override into the budget-0 abort-contract tests.
struct Armed;

impl Armed {
    fn new(budget: usize) -> Armed {
        recovery::force_retry(budget);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        recovery::unforce_retry();
    }
}

/// The skew sites of the cache-aware column helpers, one per write loop:
/// the coarse rotation of uniform groups and the staged gather.
const COLUMN_SKEW_SITES: [&str; 2] = ["coarse_rotate_subrows", "stage_gather"];

/// Run one forced-fault default-engine transpose — C2R, or R2C when
/// `r2c` — and return `(result, panics, skews)` deltas.
fn run(m: usize, n: usize, r2c: bool) -> (Result<(), TransposeAborted>, u64, u64) {
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let want = if r2c {
        let mut want = a.clone();
        ipt::core::r2c(&mut want, m, n, &mut Scratch::new());
        want
    } else {
        reference_transpose(&a, m, n, Layout::RowMajor)
    };
    let opts = ParOptions::default();
    let (p0, s0, _) = faulty::injection_counts();
    let result = if r2c {
        r2c_parallel(&mut a, m, n, &opts)
    } else {
        c2r_parallel(&mut a, m, n, &opts)
    };
    let (p1, s1, _) = faulty::injection_counts();
    if result.is_ok() {
        assert_eq!(a, want, "Ok result must mean a correct {m}x{n} (r2c={r2c})");
    }
    (result, p1 - p0, s1 - s0)
}

/// Run one forced-fault cycle-bundle row permute (`q^-1`, the unfused
/// R2C step 1) at the default u64 group width and return `(result,
/// panics, skews)` deltas.
fn run_row_permute(m: usize, n: usize) -> (Result<(), PoolError>, u64, u64) {
    let p = C2rParams::new(m, n);
    let mut a: Vec<u64> = (0..(m * n) as u64).collect();
    let mut want = a.clone();
    permute::row_permute_inverse(&mut want, &p, &mut vec![0; m.max(n)]);
    let w = ParOptions::default().group_width::<u64>();
    let (p0, s0, _) = faulty::injection_counts();
    let result = cache_aware::row_permute(&mut a, &p, w, true);
    let (p1, s1, _) = faulty::injection_counts();
    if result.is_ok() {
        assert_eq!(a, want, "Ok result must mean a correct {m}x{n} row permute");
    }
    (result, p1 - p0, s1 - s0)
}

#[test]
fn row_cycle_bundle_panics_are_contained_across_thread_counts() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.1));
    let mut aborted = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        // Tall-skinny shapes collapse to one column group, so these sweeps
        // only parallelize (and only inject "row_cycle_bundle" panics)
        // through the cycle-bundle axis.
        for (m, n) in [(4096usize, 8usize), (2048, 48), (513, 96)] {
            let (result, panics, _) = run_row_permute(m, n);
            match result {
                Err(e) => {
                    assert!(panics > 0, "abort without injection: {e} ({m}x{n})");
                    assert!(
                        e.payload.contains("ipt fault injection"),
                        "unexpected payload: {e}"
                    );
                    aborted += 1;
                }
                Ok(()) => assert_eq!(panics, 0, "{m}x{n} swallowed an injected panic"),
            }
        }
    }
    assert!(aborted > 0, "the sweep never injected a bundle panic");
}

#[test]
fn row_cycle_bundle_skews_abort_via_the_shadow_claims() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Skew(1.0));
    // With rate 1.0 the first skewed write lands outside the task's
    // row-set x column-group claim and must trip the checker. Shapes span
    // several column groups of the default u64 width (skews need a
    // foreign group to land in).
    let mut named_the_scheduler = 0u64;
    let mut caught = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for (m, n) in [(200usize, 96usize), (96, 192), (513, 64)] {
            let (result, _, skews) = run_row_permute(m, n);
            match result {
                Err(e) => {
                    assert!(skews > 0, "abort without a skew: {e} ({m}x{n})");
                    assert!(
                        e.payload.contains("disjointness"),
                        "skew must abort via the checker, got: {e}"
                    );
                    caught += 1;
                    // The violation label should name the bundle scheduler
                    // and its composite-owner decode rule.
                    if e.payload.contains("row_permute") && e.payload.contains("cycle bundle") {
                        named_the_scheduler += 1;
                    }
                }
                Ok(()) => assert_eq!(
                    skews, 0,
                    "threads={threads} {m}x{n}: {skews} skews went undetected"
                ),
            }
        }
    }
    assert!(caught > 0, "the sweep never injected a bundle skew");
    assert!(
        named_the_scheduler > 0,
        "no abort named the row-permute bundle scheduler"
    );
}

#[test]
fn injected_panics_are_contained_across_thread_counts() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.05));
    let mut aborted = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        let mut aborted_here = 0u64;
        let before = stats::snapshot();
        // 5% per (site, item) over hundreds of rows/groups injects many
        // times, in both directions.
        for (m, n) in [(64usize, 96usize), (97, 64), (200, 300), (33, 1024)] {
            for r2c in [false, true] {
                let (result, panics, _) = run(m, n, r2c);
                match result {
                    Err(e) => {
                        assert!(panics > 0, "abort without injection: {e} ({m}x{n})");
                        assert!(
                            e.source.payload.contains("ipt fault injection"),
                            "unexpected payload: {e}"
                        );
                        aborted_here += 1;
                    }
                    Ok(()) => assert_eq!(panics, 0, "{m}x{n} swallowed an injected panic"),
                }
            }
        }
        let d = stats::snapshot().delta_since(&before);
        assert!(
            d.panics_contained >= aborted_here,
            "stats must count contained panics: {d:?}"
        );
        aborted += aborted_here;
    }
    assert!(
        aborted > 0,
        "the sweep never injected a panic — dead harness?"
    );
}

#[test]
fn injected_panics_in_batched_transposes_are_contained() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.5));
    set_num_threads(4);
    let (b, m, n) = (16usize, 24, 36);
    let mut data: Vec<u64> = (0..(b * m * n) as u64).collect();
    let (p0, _, _) = faulty::injection_counts();
    let result = transpose_batched(&mut data, b, m, n, Layout::RowMajor);
    let (p1, _, _) = faulty::injection_counts();
    match result {
        Err(e) => {
            assert!(p1 > p0, "abort without injection: {e}");
            assert_eq!(e.phase, "batched", "{e}");
        }
        Ok(()) => assert_eq!(p1, p0),
    }
}

/// Shapes for the default-engine skew sweeps: gcd(m, n) > 1 (the
/// pre/post-rotation runs) and coprime (only the fused column shuffles
/// run), each spanning several column groups of the default u64 width
/// so a skew has a foreign group to land in. The rotation amount
/// `floor(j/b)` changes every `b = n / gcd(m, n)` columns: below the
/// group width most rotation groups are non-uniform and stage, while
/// 66x128 (`b = 64`, two groups per amount) rotates every group coarsely
/// before any staged pass runs.
const SKEW_SHAPES: [(usize, usize); 6] = [
    (64, 96),
    (96, 192),
    (48, 300),
    (97, 128),
    (61, 257),
    (66, 128),
];

/// Skew rates for the site sweeps. Decisions are deterministic per
/// (site, column), so the rate picks which helper's write faults first:
/// across these rates and 1/2/4 threads, every column helper's site
/// fires on [`SKEW_SHAPES`].
const SKEW_RATES: [f64; 3] = [1.0, 0.1, 0.01];

#[test]
fn every_injected_skew_is_caught_by_the_checker() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Skew(1.0));
    // Rate 1.0 skews the first write of every column-helper call, which
    // must land in a foreign group and trip the shadow map before any
    // data is torn silently.
    let mut caught = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for (m, n) in SKEW_SHAPES {
            for r2c in [false, true] {
                let (result, _, skews) = run(m, n, r2c);
                match result {
                    Err(e) => {
                        assert!(skews > 0, "abort without a skew: {e} ({m}x{n})");
                        assert!(
                            e.source.payload.contains("disjointness"),
                            "skew must abort via the checker, got: {e}"
                        );
                        caught += 1;
                    }
                    Ok(()) => assert_eq!(
                        skews, 0,
                        "threads={threads} {m}x{n} r2c={r2c}: {skews} skews went undetected"
                    ),
                }
            }
        }
    }
    assert!(
        caught > 0,
        "the sweep never injected a skew — dead harness?"
    );
}

#[test]
fn low_rate_skews_are_still_all_detected() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Skew(0.08));
    let mut caught = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for (m, n) in [
            (64usize, 96usize),
            (72, 160),
            (96, 224),
            (120, 288),
            (61, 257),
        ] {
            for r2c in [false, true] {
                let (result, _, skews) = run(m, n, r2c);
                match result {
                    Err(e) => {
                        assert!(
                            skews > 0 && e.source.payload.contains("disjointness"),
                            "{m}x{n} r2c={r2c}: {e}"
                        );
                        caught += 1;
                    }
                    Ok(()) => assert_eq!(
                        skews, 0,
                        "threads={threads} {m}x{n} r2c={r2c} missed a skew"
                    ),
                }
            }
        }
    }
    assert!(caught > 0, "the low-rate sweep never injected a skew");
}

#[test]
fn every_column_skew_site_family_injects() {
    let _guard = setup();
    // A skew site that never fires would leave its helper's writes
    // untested by the checker. Sweep rates and shapes on the default
    // engine until every helper's site has injected (and every injection
    // was caught, which `run` and the match below enforce), at every
    // thread count.
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        let before: Vec<u64> = COLUMN_SKEW_SITES
            .iter()
            .map(|s| faulty::skews_at(s))
            .collect();
        for rate in SKEW_RATES {
            let _forced = Forced::new(FaultMode::Skew(rate));
            for (m, n) in SKEW_SHAPES {
                for r2c in [false, true] {
                    let (result, _, skews) = run(m, n, r2c);
                    match result {
                        Err(e) => assert!(
                            skews > 0 && e.source.payload.contains("disjointness"),
                            "{m}x{n} r2c={r2c}: {e}"
                        ),
                        Ok(()) => assert_eq!(skews, 0, "{m}x{n} r2c={r2c} missed a skew"),
                    }
                }
            }
        }
        for (site, b) in COLUMN_SKEW_SITES.iter().zip(before) {
            assert!(
                faulty::skews_at(site) > b,
                "threads={threads}: the {site} skew site never fired — dead harness?"
            );
        }
    }
}

#[test]
fn armed_retry_recovers_every_injected_panic() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.05));
    let _armed = Armed::new(2);
    let mut injected = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        let before = stats::snapshot();
        let mut injected_here = 0u64;
        // Same shape sweep as the budget-0 containment test — but with
        // IPT_RETRY=2 armed, every call must now complete with Ok and
        // byte-identical output (run asserts equality on Ok).
        for (m, n) in [(64usize, 96usize), (97, 64), (200, 300), (33, 1024)] {
            for r2c in [false, true] {
                let (result, panics, _) = run(m, n, r2c);
                assert!(
                    result.is_ok(),
                    "threads={threads} {m}x{n} r2c={r2c}: armed run aborted: {}",
                    result.unwrap_err()
                );
                injected_here += panics;
            }
        }
        // The cycle-bundle row permute too.
        for (m, n) in [(4096usize, 8usize), (513, 96)] {
            let (result, panics, _) = run_row_permute(m, n);
            assert!(
                result.is_ok(),
                "threads={threads} {m}x{n}: armed row permute aborted: {}",
                result.unwrap_err()
            );
            injected_here += panics;
        }
        let d = stats::snapshot().delta_since(&before);
        if injected_here > 0 {
            assert!(d.retries_attempted > 0, "faults but no retry rungs: {d:?}");
            assert!(d.recovered > 0, "faults but no recovered ops: {d:?}");
        }
        injected += injected_here;
    }
    assert!(injected > 0, "the armed sweep never injected a panic");
}

#[test]
fn armed_retry_recovers_injected_skews_in_checked_mode() {
    let _guard = setup();
    let _armed = Armed::new(2);
    // Injection is deterministic per (site, item), so recovery comes
    // from the sequential redo, which has no skew sites. The checker
    // (IPT_CHECK=1, set in setup()) rejects each skewed write before it
    // lands, so the undo snapshots fully describe the torn state. The
    // lower rates leave some tasks clean, so the redo skips committed
    // work.
    let mut injected = 0u64;
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for rate in SKEW_RATES {
            let _forced = Forced::new(FaultMode::Skew(rate));
            for (m, n) in SKEW_SHAPES {
                for r2c in [false, true] {
                    let (result, _, skews) = run(m, n, r2c);
                    assert!(
                        result.is_ok(),
                        "threads={threads} {m}x{n} r2c={r2c}: armed skew run aborted: {}",
                        result.unwrap_err()
                    );
                    injected += skews;
                }
            }
            for (m, n) in [(200usize, 96usize), (513, 64)] {
                let (result, _, skews) = run_row_permute(m, n);
                assert!(
                    result.is_ok(),
                    "threads={threads} {m}x{n}: armed bundle-skew run aborted: {}",
                    result.unwrap_err()
                );
                injected += skews;
            }
        }
    }
    assert!(injected > 0, "the armed sweep never injected a skew");
}

#[test]
fn armed_retry_recovers_aos_soa_panics() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.05));
    let _armed = Armed::new(2);
    // The AoS <-> SoA conversions run on the engine, so they inherit its
    // recovery: both directions must complete with Ok and byte-identical
    // output. (structs, fields): 40009 x 6 is coprime, 40960 x 8 has
    // gcd 8 and runs the rotation pass too.
    let mut injected = 0u64;
    let before = stats::snapshot();
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for (n, s) in [(40_009usize, 6usize), (40_960, 8)] {
            let aos: Vec<u64> = (0..(n * s) as u64).collect();
            let soa = reference_transpose(&aos, n, s, Layout::RowMajor);
            let mut a = aos.clone();
            let (p0, _, _) = faulty::injection_counts();
            let to_soa = ipt::aos_soa::aos_to_soa(&mut a, n, s);
            assert!(
                to_soa.is_ok(),
                "threads={threads} {n}x{s}: aos_to_soa aborted: {to_soa:?}"
            );
            assert_eq!(a, soa, "threads={threads} {n}x{s}: aos_to_soa output");
            let to_aos = ipt::aos_soa::soa_to_aos(&mut a, n, s);
            assert!(
                to_aos.is_ok(),
                "threads={threads} {n}x{s}: soa_to_aos aborted: {to_aos:?}"
            );
            assert_eq!(a, aos, "threads={threads} {n}x{s}: soa_to_aos output");
            injected += faulty::injection_counts().0 - p0;
        }
    }
    assert!(injected > 0, "the armed aos sweep never injected a panic");
    let d = stats::snapshot().delta_since(&before);
    assert!(d.recovered > 0, "faults but no recovered ops: {d:?}");
}

#[test]
fn armed_retry_recovers_batched_panics() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.5));
    let _armed = Armed::new(1);
    set_num_threads(4);
    let (b, m, n) = (16usize, 24, 36);
    let mut data: Vec<u64> = (0..(b * m * n) as u64).collect();
    let mut want = data.clone();
    let mut scratch = Scratch::new();
    for mat in want.chunks_exact_mut(m * n) {
        ipt::core::c2r(mat, m, n, &mut scratch);
    }
    let (p0, _, _) = faulty::injection_counts();
    let result = transpose_batched(&mut data, b, m, n, Layout::RowMajor);
    let (p1, _, _) = faulty::injection_counts();
    assert!(p1 > p0, "rate 0.5 over 16 matrices must inject");
    assert!(result.is_ok(), "armed batched run aborted: {result:?}");
    assert_eq!(data, want, "recovered batch must be byte-identical");
}

#[test]
fn budget_zero_keeps_the_abort_contract() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.1));
    let _armed = Armed::new(0);
    // An explicit IPT_RETRY=0 must behave exactly like the unset default:
    // the first contained fault aborts the whole transpose.
    set_num_threads(4);
    let mut aborted = 0u64;
    for (m, n) in [(64usize, 96usize), (97, 64), (200, 300), (33, 1024)] {
        for r2c in [false, true] {
            let (result, panics, _) = run(m, n, r2c);
            match result {
                Err(e) => {
                    assert!(panics > 0, "abort without injection: {e} ({m}x{n})");
                    aborted += 1;
                }
                Ok(()) => assert_eq!(panics, 0, "{m}x{n} swallowed an injected panic"),
            }
        }
    }
    assert!(aborted > 0, "the budget-0 sweep never injected a panic");
}

#[test]
fn zero_rate_injects_nothing_and_transposes_correctly() {
    let _guard = setup();
    let _forced = Forced::new(FaultMode::Panic(0.0));
    for threads in [1usize, 2, 4] {
        set_num_threads(threads);
        for r2c in [false, true] {
            let (result, panics, skews) = run(60, 48, r2c);
            assert!(result.is_ok(), "rate 0.0 must never abort");
            assert_eq!((panics, skews), (0, 0));
        }
        // Clean cycle-bundle runs: byte-identical to the serial reference
        // with zero shadow-map aborts under IPT_CHECK=1 (run_row_permute
        // asserts equality on Ok).
        let (result, panics, skews) = run_row_permute(4096, 8);
        assert!(result.is_ok(), "clean bundle run must never abort");
        assert_eq!((panics, skews), (0, 0));
    }
}
