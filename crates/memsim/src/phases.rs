//! Per-phase traffic prediction for the decomposed transpose — the
//! analytical half of the phase-attributed cost model.
//!
//! [`crate::model::DeviceModel`] prices a *whole* C2R/R2C transpose; the
//! engine in `ipt-parallel` *measures* wall time per decomposition phase
//! (`pre_rotate` / `row_shuffle` / `col_shuffle` / `post_rotate`, via
//! `ipt_pool::stats`). This module connects the two: [`predict_c2r`] and
//! [`predict_r2c`] attribute the model's cost to the same named phases,
//! predicting for each one
//!
//! * **transaction counts** — discrete cache-line transactions, exact
//!   for the synthetic streams they describe (the property tests replay
//!   them through [`crate::Memory`] and require equality);
//! * **useful vs transferred bytes** — the payload the algorithm asked
//!   for against what the line-granular memory system moved;
//! * **predicted seconds and the per-phase share** — from the same
//!   [`PassCost`] regimes as [`DeviceModel::c2r_gbps`], so
//!   [`PhasePrediction::effective_gbps`] equals the whole-transpose
//!   estimate *exactly* (asserted in this module's tests).
//!
//! [`PhaseBreakdown`] then pairs a prediction with measured wall-time
//! shares and reduces the comparison to a divergence metric (total
//! variation distance) plus a ranking check — the validation behind
//! `ipt-cli model`, `ipt-cli bench --model`, and `scripts/ci.sh`'s model
//! smoke gate. See `MODEL.md` for the formulas and worked examples.
//!
//! ```
//! use memsim::model::DeviceModel;
//! use memsim::phases::{self, PhaseBreakdown};
//!
//! let d = DeviceModel::reference_cpu();
//! // 192 x 256 is the first committed bench shape: gcd = 64, so the
//! // pre-rotation runs, and a 2 KB row shuffles on chip.
//! let pred = phases::predict_c2r(&d, 192, 256, 8);
//! assert_eq!(
//!     pred.names(),
//!     [phases::PRE_ROTATE, phases::ROW_SHUFFLE, phases::COL_SHUFFLE]
//! );
//! // The pre-rotation and the staged column shuffle are one derated
//! // column pass each; each outweighs the full-speed on-chip row shuffle.
//! let col = pred.share(phases::COL_SHUFFLE).unwrap();
//! assert!((0.35..0.45).contains(&col), "col share {col}");
//! assert_eq!(pred.share(phases::PRE_ROTATE), Some(col));
//! assert!(pred.share(phases::ROW_SHUFFLE).unwrap() < col);
//!
//! // Pairing with a (here: fictitious) measured wall-time split gives
//! // the divergence metric the validation layer gates on.
//! let measured = [("pre_rotate", 310u64), ("row_shuffle", 220), ("col_shuffle", 470)];
//! let b = PhaseBreakdown::new(&pred, &measured);
//! assert!(b.divergence < 0.15, "divergence {}", b.divergence);
//! // The tied pre-rotation and column shuffle may rank either way.
//! assert!(b.rank_agrees);
//! ```

use crate::model::{ipt_gcd, DeviceModel, PassCost, ShuffleRegime};

/// C2R step 1: rotate columns by `floor(j/b)` (Eq. 23); skipped when
/// `gcd(m, n) = 1`. Matches `ipt_parallel::phases::PRE_ROTATE`.
pub const PRE_ROTATE: &str = "pre_rotate";
/// C2R step 2 / R2C step 3: permute within each row (Eqs. 24/31).
/// Matches `ipt_parallel::phases::ROW_SHUFFLE`.
pub const ROW_SHUFFLE: &str = "row_shuffle";
/// C2R step 3 / R2C steps 1–2: permute within each column
/// (Eqs. 26/32–35). Matches `ipt_parallel::phases::COL_SHUFFLE`.
pub const COL_SHUFFLE: &str = "col_shuffle";
/// R2C step 4: undo the rotation (Eq. 36); skipped when `gcd(m, n) = 1`.
/// Matches `ipt_parallel::phases::POST_ROTATE`.
pub const POST_ROTATE: &str = "post_rotate";

/// Cache-line transactions of one aligned streaming pass over `bytes`
/// contiguous bytes: one transaction per line touched, so
/// `ceil(bytes / line)`.
///
/// This is the exact count [`crate::Memory`] reports when the same
/// stream is replayed through it in line-aligned warp accesses (the
/// `phases` property tests assert equality), and the unit the streaming
/// phases below are priced in.
///
/// # Panics
///
/// Panics if `line == 0`.
pub fn streaming_transactions(bytes: u64, line: u64) -> u64 {
    assert!(line > 0, "line size must be positive");
    bytes.div_ceil(line)
}

/// Predicted memory traffic of one decomposition phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTraffic {
    /// Phase name (one of [`PRE_ROTATE`], [`ROW_SHUFFLE`],
    /// [`COL_SHUFFLE`], [`POST_ROTATE`]).
    pub name: &'static str,
    /// Whole-matrix passes the phase performs (the staged column
    /// shuffle applies both of its factors in one pass).
    pub passes: u32,
    /// Predicted cache-line transactions across those passes.
    pub transactions: u64,
    /// Bytes the algorithm asks to move: read + write of the matrix
    /// payload, once per pass.
    pub useful_bytes: u64,
    /// Bytes the line-granular memory system moves to service them
    /// (`>= useful_bytes`; gathers in the spill regime transfer a
    /// sector per element).
    pub transferred_bytes: u64,
    /// Predicted wall time, from the same [`PassCost`] pricing as
    /// [`DeviceModel::combine`]: `useful_bytes / (peak * factor)`.
    pub seconds: f64,
}

impl PhaseTraffic {
    /// Transferred / useful bytes — the waste factor of the phase's
    /// access pattern (1.0 = every moved byte was asked for).
    pub fn expansion(&self) -> f64 {
        if self.useful_bytes == 0 {
            return 0.0;
        }
        self.transferred_bytes as f64 / self.useful_bytes as f64
    }
}

/// The per-phase cost attribution of one whole transpose — what
/// [`predict_c2r`] / [`predict_r2c`] return.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePrediction {
    /// Matrix payload in bytes (`m * n * elem`).
    pub matrix_bytes: u64,
    /// One entry per phase that runs, in execution order. Phases the
    /// shape skips (the rotation when `gcd(m, n) = 1`) are absent, like
    /// in the measured `ipt_pool::stats` split.
    pub phases: Vec<PhaseTraffic>,
}

impl PhasePrediction {
    /// Total predicted wall time across all phases, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Effective throughput under the paper's Eq. 37 metric
    /// (`2 * matrix_bytes / total_seconds`), in GB/s — identical to
    /// [`DeviceModel::c2r_gbps`] / [`DeviceModel::r2c_gbps`] for the
    /// matching direction.
    pub fn effective_gbps(&self) -> f64 {
        2.0 * self.matrix_bytes as f64 / self.total_seconds() / 1e9
    }

    /// The prediction for phase `name`, if that phase runs.
    pub fn phase(&self, name: &str) -> Option<&PhaseTraffic> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Phase names in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.phases.iter().map(|p| p.name).collect()
    }

    /// Predicted fraction of total wall time spent in phase `name`
    /// (`None` if the phase doesn't run). Shares sum to 1.
    pub fn share(&self, name: &str) -> Option<f64> {
        let total = self.total_seconds();
        self.phase(name).map(|p| p.seconds / total)
    }

    /// `(name, share)` for every phase, in execution order.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_seconds();
        self.phases
            .iter()
            .map(|p| (p.name, p.seconds / total))
            .collect()
    }

    /// The phase predicted to dominate wall time, the later one on a tie
    /// (`None` only for an empty prediction, which no valid shape
    /// produces).
    pub fn dominant(&self) -> Option<&'static str> {
        self.phases
            .iter()
            .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .map(|p| p.name)
    }
}

/// One streaming phase: `passes` coalesced read+write sweeps of the
/// matrix at `cost`'s pricing.
fn streaming_phase(
    d: &DeviceModel,
    name: &'static str,
    passes: u32,
    matrix_bytes: u64,
    cost: PassCost,
) -> PhaseTraffic {
    let per_pass = 2 * streaming_transactions(matrix_bytes, d.line_bytes);
    let transactions = u64::from(passes) * per_pass;
    PhaseTraffic {
        name,
        passes,
        transactions,
        useful_bytes: u64::from(passes) * 2 * matrix_bytes,
        transferred_bytes: transactions * d.line_bytes,
        seconds: pass_seconds(d, matrix_bytes, passes, cost),
    }
}

/// Closed-form pricing of `passes` applications of `cost` to the whole
/// matrix — the exact arithmetic of [`DeviceModel::combine`], kept
/// byte-for-byte identical so the phase attribution and the
/// whole-transpose `c2r_gbps`/`r2c_gbps` estimates can never disagree.
fn pass_seconds(d: &DeviceModel, matrix_bytes: u64, passes: u32, cost: PassCost) -> f64 {
    let bytes = matrix_bytes as f64 * cost.dram_bytes_per_byte;
    f64::from(passes) * bytes / (d.peak_gbps * 1e9 * cost.bandwidth_factor)
}

/// The row-shuffle phase: regime-dependent traffic for shuffling
/// `m`-many vectors of `vec_elems` elements each.
fn shuffle_phase(
    d: &DeviceModel,
    name: &'static str,
    vectors: u64,
    vec_elems: u64,
    elem: u64,
) -> PhaseTraffic {
    let vec_bytes = vec_elems * elem;
    let matrix_bytes = vectors * vec_bytes;
    let cost = d.shuffle_pass(vec_bytes, elem);
    let (passes, transactions, transferred_bytes) = match d.shuffle_regime(vec_bytes) {
        // One coalesced read + one coalesced write of the matrix.
        ShuffleRegime::OnChip => {
            let t = 2 * streaming_transactions(matrix_bytes, d.line_bytes);
            (1, t, t * d.line_bytes)
        }
        // Two passes through the scratch vector: four streaming sweeps'
        // worth of DRAM traffic (the gather bounce is priced in the
        // bandwidth factor, not in extra transactions).
        ShuffleRegime::Cache => {
            let t = 4 * streaming_transactions(matrix_bytes, d.line_bytes);
            (2, t, t * d.line_bytes)
        }
        // The gather side touches one line per element, but only
        // `min(line, 8 * elem)` sector bytes of it transfer (the cap in
        // `shuffle_pass`'s waste term); the write-back and the staging
        // round trip stream.
        ShuffleRegime::Spill => {
            let elems = vectors * vec_elems;
            let sector = d.line_bytes.clamp(elem, 8 * elem);
            let stream = streaming_transactions(matrix_bytes, d.line_bytes);
            (
                2,
                elems + 3 * stream,
                elems * sector + 3 * stream * d.line_bytes,
            )
        }
    };
    PhaseTraffic {
        name,
        passes,
        transactions,
        useful_bytes: 2 * matrix_bytes,
        transferred_bytes,
        seconds: pass_seconds(d, matrix_bytes, 1, cost),
    }
}

fn check_shape(m: usize, n: usize, elem: usize) {
    assert!(m > 0 && n > 0, "degenerate matrix {m} x {n}");
    assert!(elem > 0, "element size must be positive");
}

/// Per-phase traffic prediction for the C2R transpose of an `m x n`
/// row-major matrix with `elem`-byte elements: the pre-rotation (one
/// column pass, only when `gcd(m, n) > 1`), the three-regime row
/// shuffle of `n`-element rows, and the column stage (rotation and row
/// permutation applied together through the engine's per-group stage —
/// one column pass).
///
/// # Panics
///
/// Panics if `m`, `n` or `elem` is zero.
pub fn predict_c2r(d: &DeviceModel, m: usize, n: usize, elem: usize) -> PhasePrediction {
    check_shape(m, n, elem);
    let matrix_bytes = (m * n * elem) as u64;
    let mut phases = Vec::new();
    if ipt_gcd(m as u64, n as u64) != 1 {
        phases.push(streaming_phase(
            d,
            PRE_ROTATE,
            1,
            matrix_bytes,
            d.column_pass(),
        ));
    }
    phases.push(shuffle_phase(
        d,
        ROW_SHUFFLE,
        m as u64,
        n as u64,
        elem as u64,
    ));
    phases.push(streaming_phase(
        d,
        COL_SHUFFLE,
        1,
        matrix_bytes,
        d.column_pass(),
    ));
    PhasePrediction {
        matrix_bytes,
        phases,
    }
}

/// Per-phase traffic prediction for the R2C direction on the same
/// **input** `m x n` row-major matrix (the swapped-parameter call
/// `r2c(data, n, m)`): the column stage first (inverse row permutation
/// and inverse rotation), then the row shuffle of the *input columns*
/// (length `m` — Figure 5's fast band at small `m`), then the
/// post-rotation when `gcd(m, n) > 1`.
///
/// # Panics
///
/// Panics if `m`, `n` or `elem` is zero.
pub fn predict_r2c(d: &DeviceModel, m: usize, n: usize, elem: usize) -> PhasePrediction {
    check_shape(m, n, elem);
    let matrix_bytes = (m * n * elem) as u64;
    let mut phases = Vec::new();
    phases.push(streaming_phase(
        d,
        COL_SHUFFLE,
        1,
        matrix_bytes,
        d.column_pass(),
    ));
    phases.push(shuffle_phase(
        d,
        ROW_SHUFFLE,
        n as u64,
        m as u64,
        elem as u64,
    ));
    if ipt_gcd(m as u64, n as u64) != 1 {
        phases.push(streaming_phase(
            d,
            POST_ROTATE,
            1,
            matrix_bytes,
            d.column_pass(),
        ));
    }
    PhasePrediction {
        matrix_bytes,
        phases,
    }
}

/// One phase's predicted share next to its measured wall-time share.
#[derive(Debug, Clone, PartialEq)]
pub struct SharePair {
    /// Phase name.
    pub name: String,
    /// Model-predicted fraction of total time, in `[0, 1]`.
    pub predicted: f64,
    /// Measured fraction of total wall time, in `[0, 1]`.
    pub measured: f64,
}

/// A prediction paired with a measurement: per-phase share table plus
/// the two agreement summaries the validation layer gates on.
///
/// Built by [`PhaseBreakdown::new`] from a [`PhasePrediction`] and the
/// measured per-phase wall times (nanoseconds, as recorded by
/// `ipt_pool::stats` phase timers).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// One row per phase, prediction order first, then any
    /// measured-only phases in measurement order. A phase absent on one
    /// side appears with a zero share on that side.
    pub phases: Vec<SharePair>,
    /// Total variation distance between the two share distributions:
    /// `0.5 * sum(|predicted - measured|)`, in `[0, 1]` (0 = identical
    /// splits, 1 = disjoint). The divergence metric of `ipt-cli model`
    /// and the CI smoke gate.
    pub divergence: f64,
    /// Whether the measured shares order the phases as the predicted
    /// shares do — the model puts the phases in the right cost order
    /// even where the shares themselves drift. Phases predicted equal
    /// may come in either order: no pair may be ordered strictly one way
    /// by the prediction and strictly the other way by the measurement.
    pub rank_agrees: bool,
}

impl PhaseBreakdown {
    /// Pair `predicted` with measured `(phase name, wall nanoseconds)`
    /// samples. Measured shares are normalized over the given phases
    /// only; if every measured time is zero the measured distribution
    /// is all-zero, divergence degrades to `0.5` and ranking to
    /// disagreement (a measurement that saw nothing cannot validate
    /// anything).
    pub fn new(predicted: &PhasePrediction, measured_nanos: &[(&str, u64)]) -> PhaseBreakdown {
        let measured_total: u64 = measured_nanos.iter().map(|&(_, ns)| ns).sum();
        let measured_share = |name: &str| -> f64 {
            if measured_total == 0 {
                return 0.0;
            }
            measured_nanos
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, ns)| ns as f64 / measured_total as f64)
                .sum()
        };
        let mut phases: Vec<SharePair> = predicted
            .shares()
            .into_iter()
            .map(|(name, p)| SharePair {
                name: name.to_string(),
                predicted: p,
                measured: measured_share(name),
            })
            .collect();
        for &(name, ns) in measured_nanos {
            if ns > 0 && !phases.iter().any(|s| s.name == name) {
                phases.push(SharePair {
                    name: name.to_string(),
                    predicted: 0.0,
                    measured: measured_share(name),
                });
            }
        }
        let divergence = 0.5
            * phases
                .iter()
                .map(|s| (s.predicted - s.measured).abs())
                .sum::<f64>();
        let discordant =
            |a: &SharePair, b: &SharePair| a.predicted > b.predicted && a.measured < b.measured;
        let rank_agrees = measured_total > 0
            && phases
                .iter()
                .all(|a| phases.iter().all(|b| !discordant(a, b)));
        PhaseBreakdown {
            phases,
            divergence,
            rank_agrees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k20c() -> DeviceModel {
        DeviceModel::default()
    }

    #[test]
    fn prediction_matches_whole_transpose_estimate_exactly() {
        let d = k20c();
        for (m, n) in [(192, 256), (257, 131), (20_000, 2_000), (9973, 5000)] {
            for elem in [4usize, 8] {
                let c2r = predict_c2r(&d, m, n, elem);
                assert_eq!(c2r.effective_gbps(), d.c2r_gbps(m, n, elem), "{m}x{n}");
                let r2c = predict_r2c(&d, m, n, elem);
                assert_eq!(r2c.effective_gbps(), d.r2c_gbps(m, n, elem), "{m}x{n}");
            }
        }
    }

    #[test]
    fn shares_sum_to_one_and_follow_execution_order() {
        let p = predict_c2r(&k20c(), 192, 256, 8);
        assert_eq!(p.names(), [PRE_ROTATE, ROW_SHUFFLE, COL_SHUFFLE]);
        let sum: f64 = p.shares().iter().map(|&(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum {sum}");
        let q = predict_r2c(&k20c(), 192, 256, 8);
        assert_eq!(q.names(), [COL_SHUFFLE, ROW_SHUFFLE, POST_ROTATE]);
    }

    #[test]
    fn coprime_shapes_skip_the_rotation_phase() {
        let c2r = predict_c2r(&k20c(), 257, 131, 8);
        assert_eq!(c2r.names(), [ROW_SHUFFLE, COL_SHUFFLE]);
        assert!(c2r.share(PRE_ROTATE).is_none());
        let r2c = predict_r2c(&k20c(), 257, 131, 8);
        assert_eq!(r2c.names(), [COL_SHUFFLE, ROW_SHUFFLE]);
    }

    #[test]
    fn onchip_streaming_counts_are_line_exact() {
        // 192 x 256 x 8 B = 384 KiB, rows on chip: the row shuffle, the
        // pre-rotation and the staged column stage are one read + one
        // write sweep each.
        let d = k20c();
        let p = predict_c2r(&d, 192, 256, 8);
        let b = 192 * 256 * 8u64;
        let per_sweep = b / d.line_bytes; // b is line-aligned here
        assert_eq!(p.phase(ROW_SHUFFLE).unwrap().transactions, 2 * per_sweep);
        assert_eq!(p.phase(COL_SHUFFLE).unwrap().transactions, 2 * per_sweep);
        assert_eq!(p.phase(COL_SHUFFLE).unwrap().passes, 1);
        assert_eq!(p.phase(PRE_ROTATE).unwrap().transactions, 2 * per_sweep);
        // Streaming phases transfer exactly what they use.
        for ph in &p.phases {
            assert_eq!(ph.transferred_bytes, ph.useful_bytes, "{}", ph.name);
            assert_eq!(ph.expansion(), 1.0, "{}", ph.name);
        }
    }

    #[test]
    fn spill_regime_pays_one_transaction_per_element() {
        // Rows of 256000 f64 = 2 MB: past the K20c model's 1.5 MB L2 budget.
        let d = k20c();
        let (m, n, elem) = (16usize, 256_000usize, 8usize);
        assert_eq!(d.shuffle_regime((n * elem) as u64), ShuffleRegime::Spill);
        let p = predict_c2r(&d, m, n, elem);
        let ph = p.phase(ROW_SHUFFLE).unwrap();
        let elems = (m * n) as u64;
        let stream = streaming_transactions((m * n * elem) as u64, d.line_bytes);
        assert_eq!(ph.transactions, elems + 3 * stream);
        assert!(ph.expansion() > 1.0, "gathers waste: {}", ph.expansion());
    }

    #[test]
    fn cache_regime_doubles_the_streaming_traffic() {
        let d = k20c();
        let (m, n, elem) = (512usize, 8_000usize, 8usize);
        assert_eq!(d.shuffle_regime((n * elem) as u64), ShuffleRegime::Cache);
        let p = predict_c2r(&d, m, n, elem);
        let ph = p.phase(ROW_SHUFFLE).unwrap();
        let stream = streaming_transactions((m * n * elem) as u64, d.line_bytes);
        assert_eq!(ph.transactions, 4 * stream);
        assert_eq!(ph.passes, 2);
    }

    #[test]
    fn dominant_phase_is_the_column_stage_for_onchip_rows() {
        // One derated column pass against one full-speed on-chip
        // shuffle: the column stage outweighs the row shuffle on every
        // device, and ties the pre-rotation (another column pass) when
        // gcd > 1, where `dominant` reports the later phase.
        for d in [DeviceModel::default(), DeviceModel::reference_cpu()] {
            for (m, n) in [(192, 256), (257, 131), (512, 512)] {
                assert_eq!(predict_c2r(&d, m, n, 8).dominant(), Some(COL_SHUFFLE));
            }
        }
    }

    #[test]
    fn streaming_transactions_round_up() {
        assert_eq!(streaming_transactions(0, 128), 0);
        assert_eq!(streaming_transactions(1, 128), 1);
        assert_eq!(streaming_transactions(128, 128), 1);
        assert_eq!(streaming_transactions(129, 128), 2);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn streaming_transactions_reject_zero_line() {
        streaming_transactions(64, 0);
    }

    #[test]
    fn breakdown_of_identical_shares_is_zero_divergence() {
        let pred = predict_c2r(&k20c(), 192, 256, 8);
        // Feed the prediction's own shares back as "measured" nanos.
        let measured: Vec<(&str, u64)> = pred
            .shares()
            .iter()
            .map(|&(name, s)| (name, (s * 1e9) as u64))
            .collect();
        let b = PhaseBreakdown::new(&pred, &measured);
        assert!(b.divergence < 1e-6, "divergence {}", b.divergence);
        assert!(b.rank_agrees);
        assert_eq!(b.phases.len(), 3);
    }

    #[test]
    fn breakdown_flags_rank_flips_and_counts_extra_phases() {
        let pred = predict_c2r(&k20c(), 257, 131, 8); // row ~0.31, col ~0.69
        let b = PhaseBreakdown::new(&pred, &[(ROW_SHUFFLE, 900), (COL_SHUFFLE, 100)]);
        assert!(!b.rank_agrees, "{b:?}");
        assert!(b.divergence > 0.5, "divergence {}", b.divergence);
        // A phase the model doesn't predict still shows up, predicted 0.
        let b = PhaseBreakdown::new(&pred, &[(ROW_SHUFFLE, 100), ("warmup", 900)]);
        let extra = b.phases.iter().find(|s| s.name == "warmup").unwrap();
        assert_eq!(extra.predicted, 0.0);
        assert!((extra.measured - 0.9).abs() < 1e-12);
    }

    #[test]
    fn predicted_ties_rank_either_way() {
        // gcd > 1: the pre-rotation and the column shuffle tie; the row
        // shuffle is predicted strictly below both.
        let pred = predict_c2r(&DeviceModel::reference_cpu(), 192, 256, 8);
        assert_eq!(pred.share(PRE_ROTATE), pred.share(COL_SHUFFLE));
        for (pre, col, agrees) in [(400, 300, true), (300, 400, true), (150, 400, false)] {
            let measured = [(PRE_ROTATE, pre), (ROW_SHUFFLE, 200), (COL_SHUFFLE, col)];
            let b = PhaseBreakdown::new(&pred, &measured);
            assert_eq!(b.rank_agrees, agrees, "pre {pre} col {col}: {b:?}");
        }
    }

    #[test]
    fn breakdown_of_empty_measurement_degrades_loudly() {
        let pred = predict_c2r(&k20c(), 192, 256, 8);
        let b = PhaseBreakdown::new(&pred, &[]);
        assert!((b.divergence - 0.5).abs() < 1e-12);
        assert!(!b.rank_agrees);
    }

    #[test]
    fn reference_cpu_shares_are_flatter_than_k20c() {
        // The CPU preset's relaxed col_factor moves share from the
        // column stage toward the shuffle — the direction this host's
        // measured splits sit in (EXPERIMENTS.md).
        let gpu = predict_c2r(&DeviceModel::default(), 192, 256, 8);
        let cpu = predict_c2r(&DeviceModel::reference_cpu(), 192, 256, 8);
        assert!(
            cpu.share(COL_SHUFFLE).unwrap() < gpu.share(COL_SHUFFLE).unwrap(),
            "cpu {:?} vs gpu {:?}",
            cpu.shares(),
            gpu.shares()
        );
    }

    #[test]
    fn degenerate_and_odd_shapes_predict_finite_costs() {
        let d = k20c();
        for (m, n, elem) in [
            (1usize, 64usize, 8usize), // single row
            (64, 1, 8),                // single column
            (1, 1, 8),                 // single element
            (6, 3, 12),                // b = 1 (n divides m), 12-byte elements
            (5, 3, 24),                // coprime, non-power-of-two elements
            (7, 9, 384),               // element wider than the 128 B line
        ] {
            for p in [predict_c2r(&d, m, n, elem), predict_r2c(&d, m, n, elem)] {
                assert!(p.total_seconds().is_finite() && p.total_seconds() > 0.0);
                assert!(p.effective_gbps().is_finite() && p.effective_gbps() > 0.0);
                for ph in &p.phases {
                    assert!(ph.transactions > 0, "{m}x{n}x{elem} {}", ph.name);
                    assert!(ph.transferred_bytes >= ph.useful_bytes / ph.transactions.max(1));
                }
            }
        }
    }
}
