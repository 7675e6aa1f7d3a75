//! Cache-aware column primitives (paper §4.6–§4.7).
//!
//! A naive column rotation touches one element per row per column —
//! worst-case one cache line per element. The paper's fix operates on
//! **sub-rows**: groups of `w` adjacent columns whose per-row slice spans
//! a few cache lines.
//!
//! * **Coarse rotation** (§4.6): a group whose columns all rotate by the
//!   same amount moves its `m` sub-rows as whole units along the
//!   rotation's analytic cycles (`z = gcd(m, r)` cycles, enumerable in
//!   closed form) — one pass, no scratch beyond one sub-row. The
//!   pre-rotation's amount `floor(j/b)` changes only every `b` columns,
//!   so most of its groups take this path.
//! * **Staged gather** (§4.6/§6.1 "on chip"): every other column step is
//!   one strided pass per group. The group's sub-rows are copied, row by
//!   row and in a given row order, into a contiguous per-worker stage,
//!   then written back row by row as `dst[i][k] = stage[(base(i) +
//!   off[k]) mod m][k]`. A per-column rotation is `off[k]` = the
//!   column's amount; the fused column shuffle ([`col_shuffle_fused`])
//!   applies both factors of `s'_j = p_j ∘ q` (Eqs. 32–33) at once, with
//!   `base` carrying the column-independent `q` and `off` the skew `p_j`.
//!   A tall group is staged in slabs of whole cache lines (see
//!   [`STAGE_BYTES`]), so each line is read and written once per step.
//! * **Row permute** (§4.7): `q`'s cycles have no closed form, so they are
//!   computed once (at most `m/2` non-trivial cycles, within the `O(m)`
//!   scratch budget) and every column group follows them in parallel,
//!   moving sub-rows. Kept for the fused-vs-separate ablation.

use crate::cols::row_permute_groups;
use crate::group_grain;
use crate::recover;
use crate::unsafe_slice::{CheckScope, UnsafeSlice};
use ipt_core::cycles::CycleSet;
use ipt_core::gcd::gcd;
use ipt_core::index::C2rParams;
use ipt_core::kernels::faulty;
use ipt_pool::{PoolError, Scratch};

/// Upper bound, in bytes, of the stage one worker fills per column slab
/// of the staged gather — half of a 2 MiB L2, so the stage and the rows
/// streaming past it share the cache. Not a knob: it only caps the
/// stage of tall groups, and leaves every group of up to 1 MiB whole.
pub const STAGE_BYTES: usize = 1 << 20;

/// Cache-line size a slab is rounded to: a narrower slab would sweep all
/// `m` rows for a fraction of every line it fetches.
pub const LINE_BYTES: usize = 64;

/// Columns of a `gw`-wide group that one stage holds for an `m`-row
/// matrix of `T`: as many whole lines of columns as fit in
/// [`STAGE_BYTES`], at least one line and at most `gw`, so the stage is
/// at most `max(STAGE_BYTES, m * max(LINE_BYTES, size_of::<T>()))` bytes.
fn stage_width<T>(m: usize, gw: usize) -> usize {
    let e = core::mem::size_of::<T>().max(1);
    let line = (LINE_BYTES / e).max(1);
    let lines = STAGE_BYTES / (m * e * line).max(1);
    gw.min(line * lines.max(1))
}

/// Rotate every column `j` left by `amount(j)` (`dst[i][j] = src[(i +
/// amount(j)) mod m][j]`), column groups of width `w` in parallel: a
/// group with one common amount rotates coarsely, any other group goes
/// through one staged gather.
pub fn rotate_columns_cache_aware<T, A>(
    data: &mut [T],
    m: usize,
    n: usize,
    w: usize,
    amount: A,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
    A: Fn(usize) -> usize + Send + Sync,
{
    assert_eq!(data.len(), m * n, "buffer length must be m * n");
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let groups = n.div_ceil(w);
    let amount = &amount;
    recover::run_op(
        data,
        groups,
        |data, journal| {
            let scope = CheckScope::new(data.len(), n, || {
                format!(
                    "rotate_columns_cache_aware (§4.6 coarse or staged): m={m}, n={n}, group width w={w}"
                )
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                Scratch::leased,
                |scratch: &mut Scratch<T>, sub| {
                    for g in sub {
                        faulty::maybe_panic("col_cache_aware", g);
                        let j0 = g * w;
                        let gw = w.min(n - j0);
                        us.claim_columns(g, j0, gw);
                        if let Some(j) = journal {
                            // SAFETY: snapshot reads stay inside the
                            // group this worker just claimed.
                            j.begin(scratch, g, (0..m).map(|r| (r * n + j0, gw)), |idx| unsafe {
                                us.get(idx)
                            });
                        }
                        let amounts: Vec<usize> = (j0..j0 + gw).map(|j| amount(j) % m).collect();
                        rotate_group(us, m, n, j0, gw, &amounts, scratch);
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| {
            // Both paths compute the per-column gather; redo with that
            // gather directly.
            recover::redo_col_gather(data, m, n, w, g, |i, j| (i + amount(j)) % m)
        },
    )
}

/// One group's rotation. `amounts[k]` is the (already reduced)
/// left-rotation of column `j0 + k`. A uniform group keeps the one-pass
/// coarse rotation, which measures faster than staging it; any other
/// group gathers through the stage.
fn rotate_group<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    amounts: &[usize],
    scratch: &mut Scratch<T>,
) {
    if amounts.iter().all(|&a| a == amounts[0]) {
        coarse_rotate_subrows(us, m, n, j0, gw, amounts[0], scratch);
    } else {
        stage_gather(us, m, n, j0, gw, |t| t, |i| i, amounts, scratch);
    }
}

/// Coarse sub-row rotation: rows of the group move `i <- (i + r) mod m`
/// as whole `gw`-wide units along the rotation's analytic cycles (§4.6).
fn coarse_rotate_subrows<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    r: usize,
    scratch: &mut Scratch<T>,
) {
    let r = r % m;
    if r == 0 {
        return;
    }
    // SAFETY (whole function): all indices are row * n + (j0 + k) with
    // k < gw — inside this task's column group.
    let idx = |row: usize, k: usize| row * n + j0 + k;
    // Writes go through this helper's skew fault site: the identity
    // unless `fault-inject` is compiled in.
    let dst = |row: usize, k: usize| {
        row * n + faulty::skew_column("coarse_rotate_subrows", j0 + k, j0, gw, n)
    };
    let z = gcd(m as u64, r as u64) as usize;
    // Every slot is written before it is read, per cycle.
    let buf = scratch.uninit_buf(gw, unsafe { us.get(idx(0, 0)) });
    for y in 0..z {
        for (k, slot) in buf.iter_mut().enumerate() {
            *slot = unsafe { us.get(idx(y, k)) };
        }
        let mut i = y;
        loop {
            let src = i + r - if i + r >= m { m } else { 0 };
            if src == y {
                for (k, &v) in buf.iter().enumerate() {
                    unsafe { us.set(dst(i, k), v) };
                }
                break;
            }
            for k in 0..gw {
                unsafe { us.set(dst(i, k), us.get(idx(src, k))) };
            }
            i = src;
        }
    }
}

/// Staged sub-row gather over one column group, in one strided pass:
/// column `j0 + k` becomes `dst[i] = src[order((base(i) + off[k]) mod
/// m)]`. The group is processed in slabs of [`stage_width`] columns; per
/// slab, sub-row `order(t)` is copied to stage row `t` (reads go row by
/// row), then every destination row is written from the stage. Requires
/// `order` to be a permutation of `0..m`, `base(i) < m` and every
/// `off[k] < m`.
#[allow(clippy::too_many_arguments)] // internal helper; grouping would obscure the call sites
fn stage_gather<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    order: impl Fn(usize) -> usize,
    base: impl Fn(usize) -> usize,
    off: &[usize],
    scratch: &mut Scratch<T>,
) {
    debug_assert_eq!(off.len(), gw);
    let sw = stage_width::<T>(m, gw);
    // SAFETY (whole function): every index is row * n + (j0 + k) with
    // row < m and k < gw — inside this task's column group.
    // Every stage slot is written before it is read, per slab.
    let stage = scratch.uninit_buf(m * sw, unsafe { us.get(j0) });
    for k0 in (0..gw).step_by(sw) {
        let kw = sw.min(gw - k0);
        let stage = &mut stage[..m * kw];
        for (t, row) in stage.chunks_exact_mut(kw).enumerate() {
            unsafe { us.read_run(order(t) * n + j0 + k0, row) };
        }
        let off = &off[k0..k0 + kw];
        for i in 0..m {
            let b = base(i);
            for (k, &o) in off.iter().enumerate() {
                let t = b + o - if b + o >= m { m } else { 0 };
                // Writes go through this helper's skew fault site.
                let j = faulty::skew_column("stage_gather", j0 + k0 + k, j0, gw, n);
                unsafe { us.set(i * n + j, stage[t * kw + k]) };
            }
        }
    }
}

/// Cache-aware C2R step 1: pre-rotation by `floor(j/b)` (Eq. 23). The
/// amount changes only every `b` columns, so a group inside one such run
/// rotates coarsely.
pub fn prerotate<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    rotate_columns_cache_aware(data, p.m, p.n, w, |j| p.rotate_amount(j))
}

/// Cache-aware C2R step 3a: column rotation by `p_j(i) = (i + j) mod m`
/// (Eq. 32) — amount `j mod m`. Kept for the fused-vs-separate ablation;
/// the engine uses [`col_shuffle_fused`].
pub fn col_rotate_j<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
) -> Result<(), PoolError> {
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, move |j| j % m)
}

/// Cache-aware R2C step 2: inverse column rotation `p^-1_j` (Eq. 35).
/// Kept for the fused-vs-separate ablation.
pub fn col_rotate_j_inverse<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
) -> Result<(), PoolError> {
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, move |j| (m - j % m) % m)
}

/// Cache-aware R2C step 4: undo the pre-rotation (`r^-1_j`, Eq. 36).
pub fn postrotate_inverse<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, move |j| (m - p.rotate_amount(j) % m) % m)
}

/// Cache-aware row permutation (§4.7): apply `q` (C2R) or `q^-1` (R2C,
/// `invert = true`) by moving sub-rows along dynamically computed cycles,
/// column groups in parallel. Kept for the fused-vs-separate ablation.
pub fn row_permute<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    invert: bool,
) -> Result<(), PoolError> {
    if invert {
        let cycles = CycleSet::build(p.m, |i| p.q_inv(i));
        row_permute_groups(data, p.m, p.n, w, |i| p.q_inv(i), &cycles)
    } else {
        let cycles = CycleSet::build(p.m, |i| p.q(i));
        row_permute_groups(data, p.m, p.n, w, |i| p.q(i), &cycles)
    }
}

/// The entire C2R column shuffle (Eq. 26) in one staged pass per group:
/// stage in identity order, write back with `base(i) = (q(i) + j0) mod
/// m` and `off[k] = k mod m`.
///
/// Correctness: for column `j = j0 + k`, `(base(i) + off[k]) mod m =
/// (q(i) + j) mod m = s'_j(i)`, so `dst[i][j] = old[s'_j(i)][j]`.
pub fn col_shuffle_fused<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
) -> Result<(), PoolError> {
    let (m, n) = (p.m, p.n);
    assert_eq!(data.len(), m * n, "buffer length must be m * n");
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let groups = n.div_ceil(w);
    let q: Vec<usize> = (0..m).map(|i| p.q(i)).collect();
    let off: Vec<usize> = (0..w.min(n)).map(|k| k % m).collect();
    let (q, off) = (&q, &off);
    recover::run_op(
        data,
        groups,
        |data, journal| {
            let scope = CheckScope::new(data.len(), n, || {
                format!("col_shuffle_fused (Eq. 26, staged: base(i)=(q(i)+j0) mod m, off[k]=k mod m): m={m}, n={n}, group width w={w}")
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                Scratch::leased,
                |scratch: &mut Scratch<T>, sub| {
                    for g in sub {
                        faulty::maybe_panic("col_fused", g);
                        let j0 = g * w;
                        let gw = w.min(n - j0);
                        us.claim_columns(g, j0, gw);
                        if let Some(j) = journal {
                            // SAFETY: snapshot reads stay inside the claim.
                            j.begin(scratch, g, (0..m).map(|r| (r * n + j0, gw)), |idx| unsafe {
                                us.get(idx)
                            });
                        }
                        let j0m = j0 % m;
                        let base = |i: usize| {
                            let b = q[i] + j0m;
                            b - if b >= m { m } else { 0 }
                        };
                        stage_gather(us, m, n, j0, gw, |t| t, base, &off[..gw], scratch);
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| {
            // The staged gather computes the direct column shuffle
            // `dst[i][j] = old[s'_j(i)][j]` (see the fn docs); redo with
            // that plain gather.
            recover::redo_col_gather(data, m, n, w, g, |i, j| p.s(j, i))
        },
    )
}

/// The inverse of [`col_shuffle_fused`] (the R2C side) in one staged
/// pass per group: stage in order `q^-1((t - j0) mod m)`, write back with
/// `base(i) = i` and `off[k] = (m - k mod m) mod m`, so column `j = j0 +
/// k` gathers `dst[i][j] = old[q^-1((i - j) mod m)][j]`.
pub fn col_shuffle_fused_inverse<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
) -> Result<(), PoolError> {
    let (m, n) = (p.m, p.n);
    assert_eq!(data.len(), m * n, "buffer length must be m * n");
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let groups = n.div_ceil(w);
    let q_inv: Vec<usize> = (0..m).map(|i| p.q_inv(i)).collect();
    let off: Vec<usize> = (0..w.min(n)).map(|k| (m - k % m) % m).collect();
    let (q_inv, off) = (&q_inv, &off);
    recover::run_op(
        data,
        groups,
        |data, journal| {
            let scope = CheckScope::new(data.len(), n, || {
                format!(
                    "col_shuffle_fused_inverse (Eq. 32-36 inverse, staged): m={m}, n={n}, group width w={w}"
                )
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                Scratch::leased,
                |scratch: &mut Scratch<T>, sub| {
                    for g in sub {
                        faulty::maybe_panic("col_fused_inverse", g);
                        let j0 = g * w;
                        let gw = w.min(n - j0);
                        us.claim_columns(g, j0, gw);
                        if let Some(j) = journal {
                            // SAFETY: snapshot reads stay inside the claim.
                            j.begin(scratch, g, (0..m).map(|r| (r * n + j0, gw)), |idx| unsafe {
                                us.get(idx)
                            });
                        }
                        let shift = m - j0 % m;
                        let order = |t: usize| {
                            let s = t + shift;
                            q_inv[s - if s >= m { m } else { 0 }]
                        };
                        stage_gather(us, m, n, j0, gw, order, |i| i, &off[..gw], scratch);
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| {
            // Per column, the staged gather computes `dst[i][j] =
            // old[q^-1((i + m - j mod m) mod m)][j]` — the
            // row-permute-inverse + column-rotate-inverse pair.
            recover::redo_col_gather(data, m, n, w, g, |i, j| p.q_inv((i + m - j % m) % m))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;
    use ipt_core::permute;

    fn reference_rotate(
        orig: &[u64],
        m: usize,
        n: usize,
        amount: impl Fn(usize) -> usize,
    ) -> Vec<u64> {
        let mut out = orig.to_vec();
        for j in 0..n {
            let k = amount(j) % m;
            for i in 0..m {
                out[i * n + j] = orig[((i + k) % m) * n + j];
            }
        }
        out
    }

    #[test]
    fn cache_aware_rotation_matches_reference() {
        crate::force_multithreaded_pool();
        for (m, n) in [(8usize, 12usize), (13, 29), (64, 40), (5, 100), (100, 5)] {
            for w in [1usize, 3, 8, 16] {
                let mut a = vec![0u64; m * n];
                fill_pattern(&mut a);
                let orig = a.clone();
                rotate_columns_cache_aware(&mut a, m, n, w, |j| j).unwrap();
                assert_eq!(a, reference_rotate(&orig, m, n, |j| j), "{m}x{n} w={w}");
            }
        }
    }

    #[test]
    fn decreasing_amount_family() {
        // The inverse rotations step -1 per column: every group of
        // width > 1 is non-uniform and goes through the staged gather.
        let (m, n) = (17usize, 23usize);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        rotate_columns_cache_aware(&mut a, m, n, 6, |j| (m - j % m) % m).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| (m - j % m) % m));
    }

    #[test]
    fn slow_family_skips_fine_pass_but_stays_correct() {
        // Pre-rotation style: amount changes every b columns; groups
        // aligned inside one b-run are uniform and rotate coarsely, with
        // no staged pass.
        let (m, n) = (12usize, 64usize);
        let b = 16usize;
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        rotate_columns_cache_aware(&mut a, m, n, 8, |j| j / b).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| j / b));
    }

    #[test]
    fn stage_width_stays_within_the_stage_bound() {
        // A 5000-row u64 line of columns (8 columns) is 320000 bytes, so
        // 1 MiB holds three lines: a 32-wide group goes in slabs of 24.
        assert_eq!(stage_width::<u64>(5000, 32), 24);
        // Every benchmark shape (m < 4096 rows of u64) keeps whole groups.
        assert_eq!(stage_width::<u64>(4095, 32), 32);
        // Taller than STAGE_BYTES / LINE_BYTES rows: one line per slab,
        // never a fraction of one.
        assert_eq!(stage_width::<u64>(40_000, 32), 8);
        assert_eq!(stage_width::<u64>(40_000, 3), 3);
        assert_eq!(stage_width::<u8>(1 << 20, 256), 64);
        fn bounded<T>(m: usize, gw: usize) {
            let (sw, e) = (stage_width::<T>(m, gw), core::mem::size_of::<T>());
            let line = (LINE_BYTES / e).max(1);
            assert!((1..=gw).contains(&sw), "m={m} gw={gw}: width {sw}");
            assert!(
                sw == gw || sw % line == 0,
                "m={m} gw={gw}: width {sw} splits a line"
            );
            assert!(
                m * sw * e <= STAGE_BYTES.max(m * LINE_BYTES.max(e)),
                "m={m} gw={gw} elem={e}: stage {} bytes",
                m * sw * e
            );
        }
        for m in [1usize, 3, 100, 4095, 5000, 40_000, 1 << 20, 3 << 20] {
            for gw in [1usize, 3, 8, 20, 32, 64, 256] {
                bounded::<u8>(m, gw);
                bounded::<u32>(m, gw);
                bounded::<u64>(m, gw);
                bounded::<[u64; 3]>(m, gw);
                bounded::<[u64; 16]>(m, gw);
            }
        }
    }

    /// The three staged entry points against `ipt_core::permute`, byte
    /// for byte, on one shape and group width.
    fn staged_matches_permute(m: usize, n: usize, w: usize) {
        let p = C2rParams::new(m, n);
        let mut orig = vec![0u64; m * n];
        fill_pattern(&mut orig);
        let mut tmp = vec![0u64; m.max(n)];

        let mut a = orig.clone();
        col_shuffle_fused(&mut a, &p, w).unwrap();
        let mut want = orig.clone();
        permute::col_shuffle_gather(&mut want, &p, &mut tmp);
        assert_eq!(a, want, "col_shuffle_fused {m}x{n} w={w}");

        let mut a = orig.clone();
        col_shuffle_fused_inverse(&mut a, &p, w).unwrap();
        let mut want = orig.clone();
        permute::row_permute_inverse(&mut want, &p, &mut tmp);
        permute::col_rotate_inverse(&mut want, &p);
        assert_eq!(a, want, "col_shuffle_fused_inverse {m}x{n} w={w}");

        let mut a = orig.clone();
        prerotate(&mut a, &p, w).unwrap();
        let mut want = orig.clone();
        permute::prerotate_cycles(&mut want, &p);
        assert_eq!(a, want, "prerotate {m}x{n} w={w}");

        let mut a = orig.clone();
        postrotate_inverse(&mut a, &p, w).unwrap();
        let mut want = orig.clone();
        permute::postrotate_inverse(&mut want, &p);
        assert_eq!(a, want, "postrotate_inverse {m}x{n} w={w}");

        let mut a = orig.clone();
        col_rotate_j_inverse(&mut a, &p, w).unwrap();
        let mut want = orig.clone();
        permute::col_rotate_inverse(&mut want, &p);
        assert_eq!(a, want, "col_rotate_j_inverse {m}x{n} w={w}");
    }

    #[test]
    fn staged_gather_matches_permute_on_edge_shapes() {
        crate::force_multithreaded_pool();
        for (m, n) in [
            (3usize, 100usize), // m < w: `k mod m` wraps inside a group
            (5, 64),
            (13, 29), // primes
            (31, 37),
            (1, 50),  // 1 x N
            (50, 1),  // N x 1
            (64, 48), // gcd > 1: uniform and non-uniform rotation groups
            (96, 72),
        ] {
            for w in [1usize, 2, 3, 4, 5, 8, 32] {
                staged_matches_permute(m, n, w);
            }
        }
    }

    #[test]
    fn staged_gather_matches_permute_when_the_stage_is_clamped() {
        crate::force_multithreaded_pool();
        // 40000 rows of u64: one line of columns (8) fills the stage, so a
        // 32-wide group goes in four slabs and a 20-wide one in 8, 8, 4.
        assert_eq!(stage_width::<u64>(40_000, 32), 8);
        staged_matches_permute(40_000, 32, 32);
        staged_matches_permute(40_000, 20, 32);
        // Narrower than a line: the whole group is one slab.
        staged_matches_permute(40_000, 3, 32);
    }

    #[test]
    fn fused_matches_separate_col_shuffle() {
        crate::force_multithreaded_pool();
        for (m, n) in [
            (4usize, 8usize),
            (9, 6),
            (12, 18),
            (21, 35),
            (64, 40),
            (7, 100),
        ] {
            for w in [1usize, 4, 16, 64] {
                let p = C2rParams::new(m, n);
                let mut fused = vec![0u32; m * n];
                fill_pattern(&mut fused);
                let mut separate = fused.clone();
                col_shuffle_fused(&mut fused, &p, w).unwrap();
                col_rotate_j(&mut separate, &p, w).unwrap();
                row_permute(&mut separate, &p, w, false).unwrap();
                assert_eq!(fused, separate, "{m}x{n} w={w}");
            }
        }
    }

    #[test]
    fn fused_inverse_inverts_fused() {
        crate::force_multithreaded_pool();
        for (m, n) in [(4usize, 8usize), (9, 6), (13, 21), (40, 64)] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u64; m * n];
            fill_pattern(&mut a);
            let orig = a.clone();
            col_shuffle_fused(&mut a, &p, 4).unwrap();
            col_shuffle_fused_inverse(&mut a, &p, 4).unwrap();
            assert_eq!(a, orig, "{m}x{n}");
        }
    }

    #[test]
    fn step_wrappers_match_sequential_permute() {
        crate::force_multithreaded_pool();
        for (m, n) in [(4usize, 8usize), (9, 6), (12, 18), (21, 35)] {
            let p = C2rParams::new(m, n);
            let mut a = vec![0u32; m * n];
            fill_pattern(&mut a);
            let mut b = a.clone();
            let mut tmp = vec![0u32; m.max(n)];

            prerotate(&mut a, &p, 4).unwrap();
            permute::prerotate_cycles(&mut b, &p);
            assert_eq!(a, b, "prerotate {m}x{n}");

            col_shuffle_fused(&mut a, &p, 4).unwrap();
            permute::col_shuffle_decomposed(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "col shuffle {m}x{n}");

            row_permute(&mut a, &p, 4, true).unwrap();
            col_rotate_j_inverse(&mut a, &p, 4).unwrap();
            permute::row_permute_inverse(&mut b, &p, &mut tmp);
            permute::col_rotate_inverse(&mut b, &p);
            assert_eq!(a, b, "inverse col shuffle {m}x{n}");

            postrotate_inverse(&mut a, &p, 4).unwrap();
            permute::postrotate_inverse(&mut b, &p);
            assert_eq!(a, b, "postrotate {m}x{n}");
        }
    }

    #[test]
    fn single_column_group_whole_matrix() {
        let (m, n) = (10usize, 6usize);
        let mut a = vec![0u16; m * n];
        fill_pattern(&mut a);
        let orig: Vec<u64> = a.iter().map(|&x| x as u64).collect();
        rotate_columns_cache_aware(&mut a, m, n, 64, |j| 2 * j + 1).unwrap();
        let want = reference_rotate(&orig, m, n, |j| 2 * j + 1);
        for (x, y) in a.iter().zip(&want) {
            assert_eq!(*x as u64, *y);
        }
    }
}
