//! Analytical GPU bandwidth model for the full-matrix transposes.
//!
//! The paper's Figures 4–5 landscapes are shaped by one mechanism: whether
//! the row (C2R) or column (R2C) being shuffled fits in **on-chip memory**
//! (the K20c's 256 KB register file per SM — §4.5 reports single-pass
//! shuffles of rows up to 29440 x 64-bit). This module prices each step of
//! the decomposition in memory transactions under a three-regime model and
//! converts the total to an effective bandwidth:
//!
//! * **on-chip**: the shuffled vector fits in registers/shared memory —
//!   one coalesced read + one coalesced write;
//! * **cache**: it fits in L2 — still two DRAM passes, but the gather
//!   traffic bounces through L2 at a derated bandwidth;
//! * **spill**: it fits nowhere — the gather side pays roughly one
//!   transaction per element plus a staging round-trip.
//!
//! The model intentionally has few knobs (all physical quantities of the
//! device) and is used by the `fig4_fig5_landscape --model` mode to
//! reproduce the *band structure* of the paper's heatmaps, which a
//! cache-based single-core host softens beyond recognition. It is a
//! first-order model: absolute numbers are indicative, crossings and
//! bands are the claim.

/// Device parameters for the analytical model. Defaults approximate the
/// Tesla K20c of the paper's evaluation.
///
/// ```
/// use memsim::model::DeviceModel;
///
/// let k20c = DeviceModel::default();
/// // Figure 4's band: a 20000 x 2000 f64 matrix keeps rows on chip...
/// let banded = k20c.c2r_gbps(20_000, 2_000, 8);
/// // ...a 20000 x 20000 one does not.
/// let interior = k20c.c2r_gbps(20_000, 20_000, 8);
/// assert!(banded > interior);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// Transaction granularity in bytes.
    pub line_bytes: u64,
    /// Peak DRAM bandwidth, GB/s.
    pub peak_gbps: f64,
    /// Per-vector on-chip staging capacity in bytes (register file /
    /// shared memory available to one row or column shuffle).
    pub onchip_bytes: u64,
    /// Last-level cache capacity in bytes.
    pub l2_bytes: u64,
    /// Bandwidth derating when gather traffic is served through L2.
    pub l2_factor: f64,
    /// Bandwidth derating of the cache-aware column passes (rotations,
    /// staged column shuffles, [`DeviceModel::column_pass`]): their traffic is
    /// line-granular but scattered in placement. 0.45 reproduces the
    /// K20c's column-pass share of Figures 4–5; a CPU cache hierarchy
    /// hides the scatter better (see [`DeviceModel::reference_cpu`]).
    pub col_factor: f64,
}

impl Default for DeviceModel {
    fn default() -> DeviceModel {
        DeviceModel {
            line_bytes: 128,
            peak_gbps: 208.0,
            // One thread block's practical staging budget. §4.5's
            // 29440-element extreme uses the whole 256 KB register file
            // of an SM for a single row; sustaining occupancy caps the
            // per-vector budget far lower — 24 KB places the fast band at
            // n ~ 3000 f64 elements, where Figure 4 draws it.
            onchip_bytes: 24 * 1024,
            l2_bytes: 1_536 * 1024,
            l2_factor: 0.35,
            col_factor: 0.45,
        }
    }
}

/// Which of the three §4.5 regimes a row/column shuffle falls into —
/// the discriminant behind [`DeviceModel::shuffle_pass`], public so the
/// per-phase traffic accounting in [`crate::phases`] can count
/// transactions with the matching access pattern (streaming vs
/// per-element gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleRegime {
    /// The shuffled vector fits in on-chip staging: one coalesced read
    /// plus one coalesced write.
    OnChip,
    /// It fits in L2: two passes through a scratch vector, gathers
    /// bouncing through the cache at derated bandwidth.
    Cache,
    /// It fits nowhere: the gather side pays about one transaction per
    /// element, plus a staging round trip.
    Spill,
}

/// Cost of one pass, in equivalent DRAM-seconds per byte of matrix.
///
/// Build custom lists of these and feed them to [`DeviceModel::combine`]
/// to model algorithms beyond C2R/R2C on the same device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassCost {
    /// Bytes transferred from/to DRAM, normalized per matrix byte.
    pub dram_bytes_per_byte: f64,
    /// Effective bandwidth derating for this pass (1.0 = full peak).
    pub bandwidth_factor: f64,
}

impl DeviceModel {
    /// A model of the class of host this repository actually measures
    /// on: one CPU core behind a 64-byte-line cache hierarchy with
    /// container-grade memory bandwidth (see `EXPERIMENTS.md`).
    ///
    /// The regime boundaries move to the L1/L2 capacities, and the
    /// L2-gather bounce (`l2_factor`) relaxes: a CPU's caches absorb it
    /// far better than the K20c's coalescer. `col_factor` is the measured
    /// speed of one staged column pass relative to an on-chip row
    /// shuffle — about one half across cache-resident and out-of-cache
    /// shapes at one thread (EXPERIMENTS.md, "Staged sub-row gather").
    /// This is the default device of `ipt-cli model`, whose phase-share
    /// validation is the calibration evidence for these values.
    ///
    /// ```
    /// use memsim::model::DeviceModel;
    ///
    /// let cpu = DeviceModel::reference_cpu();
    /// // Same band structure as the K20c, gentler cliffs.
    /// assert!(cpu.c2r_gbps(20_000, 2_000, 8) > cpu.c2r_gbps(20_000, 20_000, 8));
    /// ```
    pub fn reference_cpu() -> DeviceModel {
        DeviceModel {
            line_bytes: 64,
            peak_gbps: 3.2,
            onchip_bytes: 32 * 1024,
            l2_bytes: 1_536 * 1024,
            l2_factor: 0.6,
            col_factor: 0.5,
        }
    }

    /// Which §4.5 regime a shuffle of `vec_bytes`-byte vectors runs in
    /// (the discriminant of [`DeviceModel::shuffle_pass`]).
    pub fn shuffle_regime(&self, vec_bytes: u64) -> ShuffleRegime {
        if vec_bytes <= self.onchip_bytes {
            ShuffleRegime::OnChip
        } else if vec_bytes <= self.l2_bytes {
            ShuffleRegime::Cache
        } else {
            ShuffleRegime::Spill
        }
    }

    /// Cost of shuffling vectors of `vec_bytes` (a row for C2R's row
    /// shuffle, a column for R2C's) under the three-regime model.
    pub fn shuffle_pass(&self, vec_bytes: u64, elem: u64) -> PassCost {
        match self.shuffle_regime(vec_bytes) {
            // Single pass (§4.5): read + write, both coalesced.
            ShuffleRegime::OnChip => PassCost {
                dram_bytes_per_byte: 2.0,
                bandwidth_factor: 1.0,
            },
            // Two passes through a temporary (Algorithm 1's scratch
            // vector), gathers bouncing through L2 at derated bandwidth.
            // Gathers move one element per L2 request, so wider elements
            // use the sectors better — the paper's observation that
            // doubles transpose faster than floats (§5.2).
            ShuffleRegime::Cache => {
                let elem_eff = (elem as f64 / 8.0).clamp(0.5, 1.0);
                PassCost {
                    dram_bytes_per_byte: 4.0,
                    bandwidth_factor: self.l2_factor * elem_eff,
                }
            }
            // Spill: the gather side touches ~one line per element and a
            // staging buffer costs a round trip.
            ShuffleRegime::Spill => {
                let waste = (self.line_bytes as f64 / elem as f64).max(1.0);
                PassCost {
                    dram_bytes_per_byte: 1.0 + waste.min(8.0) + 2.0,
                    bandwidth_factor: 1.0,
                }
            }
        }
    }

    /// Cost of the cache-aware column pass family (rotations, staged
    /// column shuffles): sub-rows are line-sized, so the traffic is coalesced;
    /// scattered line-granule placement derates bandwidth by
    /// [`DeviceModel::col_factor`].
    pub fn column_pass(&self) -> PassCost {
        PassCost {
            dram_bytes_per_byte: 2.0,
            bandwidth_factor: self.col_factor,
        }
    }

    /// Estimated effective throughput (paper Eq. 37 GB/s) of the C2R
    /// transpose of an `m x n` matrix with `elem`-byte elements.
    ///
    /// Derived from the per-phase plan of [`crate::phases::predict_c2r`]
    /// (pre-rotation when `gcd(m, n) > 1`, the three-regime row shuffle,
    /// the one-pass staged column shuffle), so the whole-transpose estimate
    /// and the phase attribution can never disagree.
    ///
    /// ```
    /// use memsim::model::DeviceModel;
    ///
    /// let k20c = DeviceModel::default();
    /// // Figure 4's band: short input rows stay on chip...
    /// let banded = k20c.c2r_gbps(20_000, 2_000, 8);
    /// // ...long ones spill to scattered gathers.
    /// let interior = k20c.c2r_gbps(20_000, 20_000, 8);
    /// assert!(banded > interior);
    /// ```
    pub fn c2r_gbps(&self, m: usize, n: usize, elem: usize) -> f64 {
        crate::phases::predict_c2r(self, m, n, elem).effective_gbps()
    }

    /// Estimated effective throughput of transposing the same **input**
    /// `m x n` row-major matrix with the R2C direction (i.e. the
    /// swapped-parameter call `r2c(data, n, m)`, whose operating view is
    /// `n x m`): the shuffled vectors are the *input columns*, of length
    /// `m` — hence Figure 5's fast band at small `m`.
    ///
    /// ```
    /// use memsim::model::DeviceModel;
    ///
    /// let k20c = DeviceModel::default();
    /// // Figure 5's band: short input columns stay on chip...
    /// let banded = k20c.r2c_gbps(2_000, 20_000, 8);
    /// // ...tall ones spill.
    /// let interior = k20c.r2c_gbps(20_000, 20_000, 8);
    /// assert!(banded > interior);
    /// ```
    pub fn r2c_gbps(&self, m: usize, n: usize, elem: usize) -> f64 {
        crate::phases::predict_r2c(self, m, n, elem).effective_gbps()
    }

    /// Estimated throughput under the §5.2 heuristic: C2R when `m > n`,
    /// else R2C, for an input `m x n` row-major matrix.
    pub fn heuristic_gbps(&self, m: usize, n: usize, elem: usize) -> f64 {
        if m > n {
            self.c2r_gbps(m, n, elem)
        } else {
            self.r2c_gbps(m, n, elem)
        }
    }

    /// Convert a pass list into the Eq. 37 effective throughput for an
    /// `m x n` matrix of `elem`-byte elements — public so harnesses can
    /// model other algorithms (e.g. the Sung baseline) on the same device.
    pub fn combine(&self, m: usize, n: usize, elem: usize, passes: &[PassCost]) -> f64 {
        let matrix_bytes = (m * n * elem) as f64;
        let mut seconds = 0.0f64;
        for p in passes {
            let bytes = matrix_bytes * p.dram_bytes_per_byte;
            seconds += bytes / (self.peak_gbps * 1e9 * p.bandwidth_factor);
        }
        // Paper Eq. 37: the ideal transpose moves 2*m*n*elem bytes.
        2.0 * matrix_bytes / seconds / 1e9
    }
}

pub(crate) fn ipt_gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k20c() -> DeviceModel {
        DeviceModel::default()
    }

    #[test]
    fn c2r_band_at_small_n() {
        // Figure 4's structure: for fixed m, small n (row fits on chip)
        // is faster than huge n (row spills).
        let d = k20c();
        let small = d.c2r_gbps(20_000, 2_000, 8); // 16 KB rows: on-chip
        let big = d.c2r_gbps(20_000, 20_000, 8); // 160 KB rows: spill to L2
        assert!(small > big * 1.5, "small-n {small} vs big-n {big}");
    }

    #[test]
    fn r2c_band_at_small_m() {
        let d = k20c();
        let small = d.r2c_gbps(2_000, 20_000, 8);
        let big = d.r2c_gbps(20_000, 20_000, 8);
        assert!(small > big * 1.5, "small-m {small} vs big-m {big}");
    }

    #[test]
    fn coprime_shapes_skip_a_pass() {
        let d = k20c();
        // 9973 is prime: gcd with 5000 is 1; compare against a same-size
        // gcd-heavy shape.
        let coprime = d.c2r_gbps(9973, 5000, 8);
        let gcdfull = d.c2r_gbps(10000, 5000, 8);
        assert!(coprime > gcdfull, "{coprime} vs {gcdfull}");
    }

    #[test]
    fn magnitudes_are_k20c_plausible() {
        // The paper's median C2R (double) is 19.5 GB/s on arrays in
        // [1000, 20000): the model should land in that decade.
        let d = k20c();
        let mid = d.c2r_gbps(10_000, 10_000, 8);
        assert!(
            (5.0..80.0).contains(&mid),
            "estimate {mid} GB/s implausible for a K20c"
        );
    }

    #[test]
    fn heuristic_never_loses_to_both_directions() {
        let d = k20c();
        for (m, n) in [(30_000usize, 2_000usize), (2_000, 30_000), (10_000, 10_000)] {
            let h = d.heuristic_gbps(m, n, 8);
            let c = d.c2r_gbps(m, n, 8);
            let r = d.r2c_gbps(m, n, 8);
            assert!(h >= c.min(r) - 1e-9, "{m}x{n}: h={h} c={c} r={r}");
        }
    }

    #[test]
    fn throughput_monotone_in_peak_bandwidth() {
        let mut d = k20c();
        let base = d.c2r_gbps(5000, 5000, 4);
        d.peak_gbps *= 2.0;
        let doubled = d.c2r_gbps(5000, 5000, 4);
        assert!((doubled - 2.0 * base).abs() < 1e-9 * doubled);
    }

    #[test]
    fn single_row_and_single_column_estimates_stay_finite() {
        // Degenerate matrices (the b = 1 / c = 1 corners of Eq. 22's
        // blocking) are already transposed or one long vector; the model
        // must still produce a finite positive estimate, not NaN/inf.
        let d = k20c();
        for (m, n) in [(1usize, 4096usize), (4096, 1), (1, 1)] {
            for est in [d.c2r_gbps(m, n, 8), d.r2c_gbps(m, n, 8)] {
                assert!(est.is_finite() && est > 0.0, "{m}x{n}: {est}");
            }
        }
    }

    #[test]
    fn non_power_of_two_elements_behave_like_their_neighbors() {
        // 6-byte elements (e.g. 3 x u16 texels) must interpolate the
        // 4- and 8-byte behavior, not fall off a cliff: in the cache
        // regime wider elements use the L2 sectors better (§5.2), so
        // the estimate is monotone non-decreasing in elem width.
        let d = k20c();
        let (m, n) = (512usize, 8_000usize); // cache-regime rows
        assert_eq!(d.shuffle_regime((n * 6) as u64), ShuffleRegime::Cache);
        let e4 = d.c2r_gbps(m, n, 4);
        let e6 = d.c2r_gbps(m, n, 6);
        let e8 = d.c2r_gbps(m, n, 8);
        assert!(e4 < e6 && e6 < e8, "{e4} / {e6} / {e8}");
        assert!(e6.is_finite() && e6 > 0.0);
    }

    #[test]
    fn elements_wider_than_a_line_cap_the_gather_waste() {
        // line_bytes < elem: a gathered element already spans whole
        // lines, so the spill waste term must clamp at 1 (no waste), not
        // go below one line per element.
        let mut d = k20c();
        d.line_bytes = 8;
        let p = d.shuffle_pass(100 * 1024 * 1024, 32); // spill, elem > line
                                                       // 1 gather (no waste) + 2 staging round-trip passes.
        assert!(
            (p.dram_bytes_per_byte - 4.0).abs() < 1e-9,
            "expected clamped waste, got {}",
            p.dram_bytes_per_byte
        );
        let est = d.c2r_gbps(4096, 4096, 32);
        assert!(est.is_finite() && est > 0.0, "{est}");
    }
}
