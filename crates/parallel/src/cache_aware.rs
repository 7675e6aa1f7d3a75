//! Cache-aware column primitives (paper §4.6–§4.7).
//!
//! A naive column rotation touches one element per row per column —
//! worst-case one cache line per element. The paper's fix operates on
//! **sub-rows**: groups of `w` adjacent columns whose per-row slice spans
//! one cache line.
//!
//! * **Coarse phase** (§4.6): all `w` columns of a group are rotated
//!   *together* by a common coarse amount, following the rotation's
//!   analytic cycles (`z = gcd(m, r)` cycles, enumerable in closed form)
//!   and moving whole sub-rows — no cycle descriptors, no scratch beyond
//!   one sub-row.
//! * **Fine phase** (§4.6): the residual per-column rotation is bounded
//!   (`< w` for all the rotation families the algorithm uses), so it is
//!   applied block-by-block through an on-cache block buffer, with the
//!   wrap-around rows served from a small stash. The fine pass is skipped
//!   entirely when every residual is zero — common for the pre-rotation,
//!   whose amount `floor(j/b)` changes only every `b` columns.
//! * **Row permute** (§4.7): `q`'s cycles have no closed form, so they are
//!   computed once (at most `m/2` non-trivial cycles, within the `O(m)`
//!   scratch budget) and every column group follows them in parallel,
//!   moving sub-rows.
//! * **Fused column shuffle** ([`col_shuffle_fused`]): per group,
//!   `s'_j = p_j ∘ q` factors as a *fine* rotation by `(j - j0) mod m`
//!   followed by the group-uniform permutation `g(i) = (q(i) + j0) mod m`
//!   — folding the coarse rotation into the permutation's cycle walk and
//!   saving one full read+write pass over the array.

use crate::cols::row_permute_groups;
use crate::group_grain;
use crate::recover;
use crate::unsafe_slice::{CheckScope, UnsafeSlice};
use ipt_core::cycles::CycleSet;
use ipt_core::gcd::gcd;
use ipt_core::index::C2rParams;
use ipt_core::kernels::faulty;
use ipt_pool::{PoolError, Scratch};

/// Rotate every column `j` left by `amount(j)` using the two-phase
/// cache-aware scheme, column groups of width `w` in parallel, fine-pass
/// blocks of `h >= 1` rows.
pub fn rotate_columns_cache_aware<T, A>(
    data: &mut [T],
    m: usize,
    n: usize,
    w: usize,
    h: usize,
    amount: A,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
    A: Fn(usize) -> usize + Send + Sync,
{
    assert_eq!(data.len(), m * n, "buffer length must be m * n");
    assert!(h > 0, "fine-pass block height must be at least one row");
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let groups = n.div_ceil(w);
    let amount = &amount;
    recover::run_op(
        data,
        groups,
        |data, journal, _degraded| {
            let scope = CheckScope::new(data.len(), n, || {
                format!(
                    "rotate_columns_cache_aware (§4.6 two-phase): m={m}, n={n}, group width w={w}"
                )
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                Scratch::leased,
                |scratch: &mut Scratch<T>, sub| {
                    for g in sub {
                        if journal.is_some_and(|j| j.is_done(g)) {
                            continue;
                        }
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
                        rotate_group(us, m, n, j0, gw, &amounts, h, scratch);
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| {
            // The two-phase scheme is an optimization of the per-column
            // gather; redo with that gather directly.
            recover::redo_col_gather(data, m, n, w, g, |i, j| (i + amount(j)) % m)
        },
    )
}

/// One group's two-phase rotation. `amounts[k]` is the (already reduced)
/// left-rotation of column `j0 + k`; both phases stage through `scratch`.
#[allow(clippy::too_many_arguments)] // internal helper; grouping would obscure the call sites
fn rotate_group<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    amounts: &[usize],
    h: usize,
    scratch: &mut Scratch<T>,
) {
    // Pick the coarse amount that minimizes the worst residual. For the
    // four rotation families the algorithm uses, amounts step by +1 or -1
    // (per column or per b columns), so one of the group's endpoints gives
    // residuals bounded by the group width (§4.6); any other amount
    // function still gets a correct, if less tight, bound.
    let residual_bound = |coarse: usize| {
        amounts
            .iter()
            .map(|&a| (a + m - coarse) % m)
            .max()
            .unwrap_or(0)
    };
    let (first, last) = (amounts[0], amounts[gw - 1]);
    let coarse = if residual_bound(first) <= residual_bound(last) {
        first
    } else {
        last
    };
    let residuals: Vec<usize> = amounts.iter().map(|&a| (a + m - coarse) % m).collect();

    // Coarse phase: rotate the group's m sub-rows left by `coarse`,
    // following the analytic cycles with one sub-row of scratch.
    coarse_rotate_subrows(us, m, n, j0, gw, coarse, scratch);

    // Fine phase: apply the bounded residual rotations block by block.
    fine_rotate_left(us, m, n, j0, gw, &residuals, h, scratch);
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

/// Fine blocked rotation: column `j0 + k` rotates left by `residuals[k]`
/// (each `< m`), processed in on-cache row blocks of height `h`, with the
/// wrap-around rows stashed up front (§4.6). Skipped when all residuals
/// are zero. The stash and the block share one `scratch` request.
#[allow(clippy::too_many_arguments)] // internal helper; grouping would obscure the call sites
fn fine_rotate_left<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    residuals: &[usize],
    h: usize,
    scratch: &mut Scratch<T>,
) {
    let maxres = residuals.iter().copied().max().unwrap_or(0);
    if maxres == 0 {
        return;
    }
    // SAFETY: column-group ownership, as in `coarse_rotate_subrows`.
    let idx = |row: usize, k: usize| row * n + j0 + k;
    let dst =
        |row: usize, k: usize| row * n + faulty::skew_column("fine_rotate_left", j0 + k, j0, gw, n);
    // Stash rows [0, maxres): overwritten by the first blocks but still
    // needed as wrap-around sources by the last ones.
    // Both halves are fully written before they are read.
    let fill = unsafe { us.get(idx(0, 0)) };
    let (stash, block) = scratch
        .uninit_buf((maxres + h.min(m)) * gw, fill)
        .split_at_mut(maxres * gw);
    for i in 0..maxres {
        for (k, slot) in stash[i * gw..(i + 1) * gw].iter_mut().enumerate() {
            *slot = unsafe { us.get(idx(i, k)) };
        }
    }
    let mut i0 = 0usize;
    while i0 < m {
        let he = h.min(m - i0);
        // Gather the whole destination block before writing any of it:
        // sources within the block must be read pre-update.
        for i in 0..he {
            for (k, &r) in residuals.iter().enumerate() {
                let src = i0 + i + r;
                block[i * gw + k] = if src < m {
                    unsafe { us.get(idx(src, k)) }
                } else {
                    stash[(src - m) * gw + k]
                };
            }
        }
        for i in 0..he {
            for k in 0..gw {
                unsafe { us.set(dst(i0 + i, k), block[i * gw + k]) };
            }
        }
        i0 += he;
    }
}

/// Fine blocked rotation to the **right**: column `j0 + k` rotates right
/// by `residuals[k]` (gather `dst[i] = src[(i - r) mod m]`). Blocks are
/// processed bottom-up so sources above each block stay unmodified, with
/// the *last* `maxres` rows stashed for the wrap-around at the top.
#[allow(clippy::too_many_arguments)] // internal helper; grouping would obscure the call sites
fn fine_rotate_right<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    residuals: &[usize],
    h: usize,
    scratch: &mut Scratch<T>,
) {
    let maxres = residuals.iter().copied().max().unwrap_or(0);
    if maxres == 0 {
        return;
    }
    // SAFETY: column-group ownership, as above.
    let idx = |row: usize, k: usize| row * n + j0 + k;
    let dst = |row: usize, k: usize| {
        row * n + faulty::skew_column("fine_rotate_right", j0 + k, j0, gw, n)
    };
    // Stash rows [m - maxres, m): they wrap to the top destinations but
    // are overwritten by the bottom-up sweep before the top is reached.
    // Both halves are fully written before they are read.
    let fill = unsafe { us.get(idx(0, 0)) };
    let (stash, block) = scratch
        .uninit_buf((maxres + h.min(m)) * gw, fill)
        .split_at_mut(maxres * gw);
    for i in 0..maxres {
        for (k, slot) in stash[i * gw..(i + 1) * gw].iter_mut().enumerate() {
            *slot = unsafe { us.get(idx(m - maxres + i, k)) };
        }
    }
    let mut end = m;
    while end > 0 {
        let he = h.min(end);
        let i0 = end - he;
        for i in 0..he {
            for (k, &r) in residuals.iter().enumerate() {
                let dst_row = i0 + i;
                block[i * gw + k] = if dst_row >= r {
                    unsafe { us.get(idx(dst_row - r, k)) }
                } else {
                    // Wrap: source row m - r + dst_row lives in the stash
                    // (it is within the last maxres rows since r <= maxres).
                    let src = m - r + dst_row;
                    stash[(src - (m - maxres)) * gw + k]
                };
            }
        }
        for i in 0..he {
            for k in 0..gw {
                unsafe { us.set(dst(i0 + i, k), block[i * gw + k]) };
            }
        }
        end = i0;
    }
}

/// Uniform sub-row permutation within one group: gather `dst[i] =
/// src[perm(i)]`, cycles followed with a visited mask and one sub-row of
/// scratch (both caller-provided and reused across groups).
#[allow(clippy::too_many_arguments)] // internal helper; grouping would obscure the call sites
fn permute_subrows<T: Copy + Send + Sync>(
    us: UnsafeSlice<'_, T>,
    m: usize,
    n: usize,
    j0: usize,
    gw: usize,
    perm: impl Fn(usize) -> usize,
    visited: &mut [bool],
    buf: &mut [T],
) {
    debug_assert!(visited.len() >= m && buf.len() >= gw);
    let idx = |row: usize, k: usize| row * n + j0 + k;
    let dst =
        |row: usize, k: usize| row * n + faulty::skew_column("permute_subrows", j0 + k, j0, gw, n);
    visited[..m].fill(false);
    let buf = &mut buf[..gw];
    for start in 0..m {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let first_src = perm(start);
        if first_src == start {
            continue;
        }
        for (k, slot) in buf.iter_mut().enumerate() {
            // SAFETY: column-group ownership (rows < m, cols in group).
            *slot = unsafe { us.get(idx(start, k)) };
        }
        let mut i = start;
        loop {
            let src = perm(i);
            if src == start {
                for (k, &v) in buf.iter().enumerate() {
                    unsafe { us.set(dst(i, k), v) };
                }
                break;
            }
            visited[src] = true;
            for k in 0..gw {
                unsafe { us.set(dst(i, k), us.get(idx(src, k))) };
            }
            i = src;
        }
    }
}

/// Cache-aware C2R step 1: pre-rotation by `floor(j/b)` (Eq. 23). The fine
/// pass is usually skipped because the amount changes every `b` columns.
pub fn prerotate<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    rotate_columns_cache_aware(data, p.m, p.n, w, h, |j| p.rotate_amount(j))
}

/// Cache-aware C2R step 3a: column rotation by `p_j(i) = (i + j) mod m`
/// (Eq. 32) — amount `j mod m`. Kept for the fused-vs-separate ablation;
/// the engine uses [`col_shuffle_fused`].
pub fn col_rotate_j<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, h, move |j| j % m)
}

/// Cache-aware R2C step 2: inverse column rotation `p^-1_j` (Eq. 35).
/// Kept for the fused-vs-separate ablation.
pub fn col_rotate_j_inverse<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, h, move |j| (m - j % m) % m)
}

/// Cache-aware R2C step 4: undo the pre-rotation (`r^-1_j`, Eq. 36).
pub fn postrotate_inverse<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    if p.coprime() {
        return Ok(());
    }
    let m = p.m;
    rotate_columns_cache_aware(data, m, p.n, w, h, move |j| {
        (m - p.rotate_amount(j) % m) % m
    })
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

/// The entire C2R column shuffle (Eq. 26) in two cache-friendly passes
/// per group: a *fine* left rotation by `(j - j0) mod m` followed by the
/// group-uniform sub-row permutation `g(i) = (q(i) + j0) mod m`.
///
/// Correctness: gathering first with the fine rotation and then with `g`
/// composes (gather-then-gather applies the outer function last) to
/// `old[(g(i) + (j - j0)) mod m] = old[(q(i) + j) mod m] = old[s'_j(i)]`.
pub fn col_shuffle_fused<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    let (m, n) = (p.m, p.n);
    assert_eq!(data.len(), m * n, "buffer length must be m * n");
    assert!(h > 0, "fine-pass block height must be at least one row");
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let fill = data[0];
    let groups = n.div_ceil(w);
    recover::run_op(
        data,
        groups,
        |data, journal, _degraded| {
            let scope = CheckScope::new(data.len(), n, || {
                format!("col_shuffle_fused (Eq. 26 = fine rotate + g(i)=(q(i)+j0) mod m): m={m}, n={n}, group width w={w}")
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                || (vec![false; m], Scratch::leased()),
                |(visited, scratch), sub| {
                    for g in sub {
                        if journal.is_some_and(|j| j.is_done(g)) {
                            continue;
                        }
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
                        let residuals: Vec<usize> = (0..gw).map(|k| k % m).collect();
                        fine_rotate_left(us, m, n, j0, gw, &residuals, h, scratch);
                        let j0m = j0 % m;
                        let buf = scratch.uninit_buf(gw, fill);
                        permute_subrows(us, m, n, j0, gw, |i| (p.q(i) + j0m) % m, visited, buf);
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| {
            // Per group, the fused pair composes to the direct column
            // shuffle `dst[i][j] = old[s'_j(i)][j]` (see the fn docs);
            // redo with that plain gather.
            recover::redo_col_gather(data, m, n, w, g, |i, j| p.s(j, i))
        },
    )
}

/// The inverse of [`col_shuffle_fused`] (the R2C side): the group-uniform
/// permutation `g^-1(i) = q^-1((i - j0) mod m)` followed by the fine
/// **right** rotation by `(j - j0) mod m`.
pub fn col_shuffle_fused_inverse<T: Copy + Send + Sync>(
    data: &mut [T],
    p: &C2rParams,
    w: usize,
    h: usize,
) -> Result<(), PoolError> {
    let (m, n) = (p.m, p.n);
    assert_eq!(data.len(), m * n, "buffer length must be m * n");
    assert!(h > 0, "fine-pass block height must be at least one row");
    if m <= 1 || n == 0 {
        return Ok(());
    }
    let fill = data[0];
    let groups = n.div_ceil(w);
    recover::run_op(
        data,
        groups,
        |data, journal, _degraded| {
            let scope = CheckScope::new(data.len(), n, || {
                format!(
                    "col_shuffle_fused_inverse (Eq. 32-36 inverse): m={m}, n={n}, group width w={w}"
                )
            });
            let us = UnsafeSlice::new(data, &scope);
            ipt_pool::par_chunks_init(
                0..groups,
                group_grain(m * w),
                || (vec![false; m], Scratch::leased()),
                |(visited, scratch), sub| {
                    for g in sub {
                        if journal.is_some_and(|j| j.is_done(g)) {
                            continue;
                        }
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
                        let j0m = j0 % m;
                        permute_subrows(
                            us,
                            m,
                            n,
                            j0,
                            gw,
                            |i| p.q_inv((i + m - j0m) % m),
                            visited,
                            scratch.uninit_buf(gw, fill),
                        );
                        let residuals: Vec<usize> = (0..gw).map(|k| k % m).collect();
                        fine_rotate_right(us, m, n, j0, gw, &residuals, h, scratch);
                        if let Some(j) = journal {
                            j.commit(g);
                        }
                    }
                },
            )
        },
        |data, g| {
            // Per column, permute-then-rotate-right composes to
            // `dst[i][j] = old[q^-1((i + m - j mod m) mod m)][j]` — the
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
                for h in [2usize, 7, 256] {
                    let mut a = vec![0u64; m * n];
                    fill_pattern(&mut a);
                    let orig = a.clone();
                    rotate_columns_cache_aware(&mut a, m, n, w, h, |j| j).unwrap();
                    assert_eq!(
                        a,
                        reference_rotate(&orig, m, n, |j| j),
                        "{m}x{n} w={w} h={h}"
                    );
                }
            }
        }
    }

    #[test]
    fn decreasing_amount_family() {
        // The inverse rotations step -1 per column; the coarse picker must
        // choose the group's last column as base.
        let (m, n) = (17usize, 23usize);
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        rotate_columns_cache_aware(&mut a, m, n, 6, 4, |j| (m - j % m) % m).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| (m - j % m) % m));
    }

    #[test]
    fn slow_family_skips_fine_pass_but_stays_correct() {
        // Pre-rotation style: amount changes every b columns; groups
        // narrower than b get residual zero everywhere.
        let (m, n) = (12usize, 64usize);
        let b = 16usize;
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let orig = a.clone();
        rotate_columns_cache_aware(&mut a, m, n, 8, 5, |j| j / b).unwrap();
        assert_eq!(a, reference_rotate(&orig, m, n, |j| j / b));
    }

    #[test]
    fn fine_right_inverts_fine_left() {
        for (m, n) in [(9usize, 13usize), (20, 7), (5, 40)] {
            for w in [3usize, 6, 64] {
                for h in [2usize, 5, 128] {
                    let mut a = vec![0u64; m * n];
                    fill_pattern(&mut a);
                    let orig = a.clone();
                    let scope = CheckScope::new(m * n, n, || "fine rotate test".to_string());
                    let us = UnsafeSlice::new(&mut a, &scope);
                    let groups = n.div_ceil(w);
                    let mut scratch = Scratch::new();
                    for g in 0..groups {
                        let j0 = g * w;
                        let gw = w.min(n - j0);
                        us.claim_columns(g, j0, gw);
                        let res: Vec<usize> = (0..gw).map(|k| (k * 2 + 1) % m).collect();
                        fine_rotate_left(us, m, n, j0, gw, &res, h, &mut scratch);
                        fine_rotate_right(us, m, n, j0, gw, &res, h, &mut scratch);
                    }
                    assert_eq!(a, orig, "{m}x{n} w={w} h={h}");
                }
            }
        }
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
                col_shuffle_fused(&mut fused, &p, w, 8).unwrap();
                col_rotate_j(&mut separate, &p, w, 8).unwrap();
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
            col_shuffle_fused(&mut a, &p, 4, 8).unwrap();
            col_shuffle_fused_inverse(&mut a, &p, 4, 8).unwrap();
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

            prerotate(&mut a, &p, 4, 8).unwrap();
            permute::prerotate_cycles(&mut b, &p);
            assert_eq!(a, b, "prerotate {m}x{n}");

            col_shuffle_fused(&mut a, &p, 4, 8).unwrap();
            permute::col_shuffle_decomposed(&mut b, &p, &mut tmp);
            assert_eq!(a, b, "col shuffle {m}x{n}");

            row_permute(&mut a, &p, 4, true).unwrap();
            col_rotate_j_inverse(&mut a, &p, 4, 8).unwrap();
            permute::row_permute_inverse(&mut b, &p, &mut tmp);
            permute::col_rotate_inverse(&mut b, &p);
            assert_eq!(a, b, "inverse col shuffle {m}x{n}");

            postrotate_inverse(&mut a, &p, 4, 8).unwrap();
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
        rotate_columns_cache_aware(&mut a, m, n, 64, 3, |j| 2 * j + 1).unwrap();
        let want = reference_rotate(&orig, m, n, |j| 2 * j + 1);
        for (x, y) in a.iter().zip(&want) {
            assert_eq!(*x as u64, *y);
        }
    }
}
