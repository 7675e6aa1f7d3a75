//! Column-group scheduler (paper §5.1, §4.7).
//!
//! Columns of a row-major matrix are independent under every column step
//! of the algorithm, so the column passes split the columns into groups
//! of `w` and process the groups in parallel. The engine's column passes
//! are the §4.6–4.7 sub-row primitives in [`crate::cache_aware`]; this
//! module holds the scheduler beside them: the cycle-bundle row permute
//! behind [`crate::cache_aware::row_permute`]. The sequential `ipt-core`
//! path is its correctness reference.
//!
//! Safety: each task touches only its own claimed cells; see
//! `unsafe_slice` for the disjointness argument. Per-worker scratch is a
//! [`ipt_pool::Scratch::leased`] buffer: leased once per worker part,
//! reused across all the tasks that part owns, and retained by the
//! worker's thread for the next pass.

use crate::recover;
use crate::unsafe_slice::{CheckScope, UnsafeSlice};
use ipt_core::cycles::{partition_bundles, CycleSet};
use ipt_core::kernels::faulty;
use ipt_pool::{PoolError, Scratch};
use std::sync::OnceLock;

/// The `IPT_CYCLE_GRAIN` override: minimum rows of cycle weight one
/// bundle must carry, parsed once through the shared warn-once knob
/// contract ([`ipt_core::env`]).
fn env_cycle_grain() -> Option<usize> {
    static GRAIN: OnceLock<Option<usize>> = OnceLock::new();
    ipt_core::env::parse_once(&GRAIN, "IPT_CYCLE_GRAIN", |raw| {
        ipt_core::env::parse_positive("IPT_CYCLE_GRAIN", raw)
    })
}

/// How many cycle bundles the row-permute scheduler should request:
/// enough that every pool thread can own one, but never so many that a
/// bundle's work (`weight x group width`) drops below the spawn
/// threshold. `IPT_CYCLE_GRAIN` overrides the default weight floor
/// (`PAR_MIN_ELEMS / gw` rows) for ablations.
fn bundle_count(moved: usize, gw: usize, threads: usize) -> usize {
    let grain = env_cycle_grain().unwrap_or_else(|| (crate::PAR_MIN_ELEMS / gw.max(1)).max(1));
    (moved / grain.max(1)).clamp(1, threads.max(1))
}

/// Shared sub-row cycle follower: apply the gather row permutation `perm`
/// to every column group in parallel, one max-group-width buffer per
/// worker.
///
/// Parallelism is two-axis (paper §5.1 x §4.7): the column groups, and —
/// because tall-skinny shapes collapse to one group — *cycle bundles*, a
/// weight-balanced LPT partition of the permutation's non-trivial cycles
/// ([`partition_bundles`]). Each (bundle, group) pair is one task; a task
/// claims exactly its bundle's rows restricted to its group's columns
/// (the row-set x column-group shadow-claim shape), so checked mode
/// still proves task disjointness cell-by-cell. Rows on no cycle are
/// fixed points: nothing claims or touches them. The schedule's shape is
/// recorded via [`ipt_pool::stats::record_bundle_schedule`].
pub(crate) fn row_permute_groups<T, P>(
    data: &mut [T],
    m: usize,
    n: usize,
    w: usize,
    perm: P,
    cycles: &CycleSet,
) -> Result<(), PoolError>
where
    T: Copy + Send + Sync,
    P: Fn(usize) -> usize + Send + Sync,
{
    assert_eq!(data.len(), m * n);
    debug_assert_eq!(cycles.domain(), m);
    if data.is_empty() || n == 0 || cycles.cycle_count() == 0 {
        return Ok(());
    }
    let groups = n.div_ceil(w);
    let wmax = w.min(n);
    let bundles = partition_bundles(
        cycles,
        bundle_count(cycles.moved(), wmax, ipt_pool::num_threads()),
    );
    let nb = bundles.len();
    let max_weight = bundles.iter().map(|b| b.weight).max().unwrap_or(0);
    let min_weight = bundles.iter().map(|b| b.weight).min().unwrap_or(0);
    ipt_pool::stats::record_bundle_schedule(nb as u64, max_weight as u64, min_weight as u64);
    // Tasks sized so a worker's share clears the spawn threshold even
    // when bundle_count was clamped by the thread count.
    let per_task_elems = (cycles.moved() / nb).max(1) * wmax;
    let task_grain = (crate::PAR_MIN_ELEMS / per_task_elems.max(1)).max(1);
    let (perm, bundles) = (&perm, &bundles);
    recover::run_op(
        data,
        nb * groups,
        |data, journal| {
            let scope = CheckScope::new(data.len(), n, || {
                format!(
                    "row_permute (Eq. 31/q^-1 cycles): m={m}, n={n}, group width w={w}, \
                     {nb} cycle bundle(s) x {groups} column group(s); claim shape \
                     row-set x column-group, owner = bundle * {groups} + group"
                )
            });
            let us = UnsafeSlice::new(data, &scope);
            let tasks = 0..nb * groups;
            ipt_pool::par_chunks_init(tasks, task_grain, Scratch::leased, |scratch, sub| {
                // The scratch buffer is sized once per worker (to the full
                // group width), asserted below via capacity stability.
                let mut sized_cap = None;
                for t in sub {
                    faulty::maybe_panic("row_cycle_bundle", t);
                    let (b, g) = (t / groups, t % groups);
                    let bundle = &bundles[b];
                    let j0 = g * w;
                    let gw = w.min(n - j0);
                    // Composite owner matching the scope label's decode rule
                    // (== t; spelled out so label and claim cannot drift).
                    let owner = b * groups + g;
                    let bundle_rows = || {
                        bundle.members.iter().flat_map(|&ci| {
                            let leader = cycles.leaders[ci];
                            let perm = &perm;
                            std::iter::successors(Some(leader), move |&i| {
                                let next = perm(i);
                                (next != leader).then_some(next)
                            })
                        })
                    };
                    us.claim_rows_in_columns(owner, bundle_rows(), j0, gw);
                    if let Some(jr) = journal {
                        // SAFETY: every snapshot index is row r of this
                        // bundle's cycles x the group just claimed.
                        jr.begin(
                            scratch,
                            t,
                            bundle_rows().map(|r| (r * n + j0, gw)),
                            |idx| unsafe { us.get(idx) },
                        );
                    }
                    // Fill value must come from this task's own claim
                    // (any other row could race with another bundle's writer).
                    let first_row = cycles.leaders[bundle.members[0]];
                    // SAFETY: (first_row, j0) is in this task's claim.
                    let fill = unsafe { us.get(first_row * n + j0) };
                    for &ci in &bundle.members {
                        let leader = cycles.leaders[ci];
                        if cycles.lengths[ci] == 2 {
                            // 2-cycle: a three-assignment sub-row swap, no
                            // buffer walk.
                            let other = perm(leader);
                            for k in 0..gw {
                                let jw = faulty::skew_column("row_cycle_bundle", j0 + k, j0, gw, n);
                                // SAFETY: (leader, j0+k) and (other, j0+k)
                                // are both in this task's claim.
                                unsafe {
                                    let tmp = us.get(leader * n + j0 + k);
                                    us.set(leader * n + jw, us.get(other * n + j0 + k));
                                    us.set(other * n + jw, tmp);
                                }
                            }
                            continue;
                        }
                        let buf = &mut scratch.uninit_buf(wmax, fill)[..gw];
                        for (k, slot) in buf.iter_mut().enumerate() {
                            // SAFETY: (leader, j0+k) is in this task's claim.
                            *slot = unsafe { us.get(leader * n + j0 + k) };
                        }
                        let mut i = leader;
                        loop {
                            let src = perm(i);
                            if src == leader {
                                for (k, &v) in buf.iter().enumerate() {
                                    let jw =
                                        faulty::skew_column("row_cycle_bundle", j0 + k, j0, gw, n);
                                    // SAFETY: row i is on this bundle's cycle.
                                    unsafe { us.set(i * n + jw, v) };
                                }
                                break;
                            }
                            for k in 0..gw {
                                // SAFETY: rows i and src are on this bundle's
                                // cycle; columns stay in [j0, j0+gw).
                                unsafe { us.set(i * n + j0 + k, us.get(src * n + j0 + k)) };
                            }
                            i = src;
                        }
                    }
                    if let Some(jr) = journal {
                        jr.commit(t);
                    }
                    // 2-cycle-only tasks never touch the buffer; the first
                    // task that does sizes it (the lease may start from any
                    // retained capacity), and it must never change after
                    // that. Armed recovery captures snapshots through owned
                    // buffers, never this storage.
                    let cap_now = scratch.capacity();
                    if bundle.members.iter().any(|&ci| cycles.lengths[ci] != 2) {
                        match sized_cap {
                            None => sized_cap = Some(cap_now),
                            Some(cap) => debug_assert_eq!(
                                cap_now, cap,
                                "worker scratch must be sized once (wmax={wmax})"
                            ),
                        }
                    }
                }
            })
        },
        |data, t| {
            // Sequential reference redo of one (bundle, group) task: the
            // same cycle walk on plain indexing — no fault sites.
            let (b, g) = (t / groups, t % groups);
            let j0 = g * w;
            let gw = w.min(n - j0);
            let mut buf = vec![data[0]; gw];
            for &ci in &bundles[b].members {
                let leader = cycles.leaders[ci];
                buf.copy_from_slice(&data[leader * n + j0..leader * n + j0 + gw]);
                let mut i = leader;
                loop {
                    let src = perm(i);
                    if src == leader {
                        data[i * n + j0..i * n + j0 + gw].copy_from_slice(&buf);
                        break;
                    }
                    for k in 0..gw {
                        data[i * n + j0 + k] = data[src * n + j0 + k];
                    }
                    i = src;
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipt_core::check::fill_pattern;
    use ipt_core::index::C2rParams;
    use ipt_core::permute;

    #[test]
    fn bundle_count_balances_grain_against_threads() {
        if std::env::var_os("IPT_CYCLE_GRAIN").is_some() {
            return; // expectations below assume the default grain
        }
        // Default grain (no IPT_CYCLE_GRAIN in the test env): enough rows
        // that a bundle's work clears PAR_MIN_ELEMS at the given width.
        let grain = crate::PAR_MIN_ELEMS / 8; // gw = 8 -> 512 rows
        assert_eq!(bundle_count(grain * 32, 8, 4), 4, "clamped by threads");
        assert_eq!(bundle_count(grain * 3, 8, 4), 3, "clamped by grain");
        assert_eq!(bundle_count(100, 8, 4), 1, "tiny work stays serial");
        assert_eq!(bundle_count(100, 8, 0), 1, "zero threads never panics");
        // Wide groups floor the grain at one row per bundle.
        assert_eq!(bundle_count(10, crate::PAR_MIN_ELEMS * 2, 64), 10);
    }

    #[test]
    fn tall_skinny_row_permute_schedules_multiple_bundles() {
        if std::env::var_os("IPT_CYCLE_GRAIN").is_some() {
            return; // the multi-bundle expectation assumes the default grain
        }
        crate::force_multithreaded_pool();
        // One column group (n <= w): without cycle bundles this shape is
        // serial. Tall enough that the default grain wants several
        // bundles regardless of the exact fixed-point count of q^-1.
        let (m, n, w) = (8192usize, 4usize, 4usize);
        let p = C2rParams::new(m, n);
        let cycles = CycleSet::build(m, |i| p.q_inv(i));
        let nb = partition_bundles(
            &cycles,
            bundle_count(cycles.moved(), w.min(n), ipt_pool::num_threads()),
        )
        .len();
        assert!(nb >= 2, "expected a multi-bundle schedule, got {nb}");

        let before = ipt_pool::stats::snapshot();
        let mut a = vec![0u64; m * n];
        fill_pattern(&mut a);
        let mut b = a.clone();
        crate::cache_aware::row_permute(&mut a, &p, w, true).unwrap();
        let mut tmp = vec![0u64; m.max(n)];
        permute::row_permute_inverse(&mut b, &p, &mut tmp);
        assert_eq!(a, b, "bundled row permute must match the serial walk");

        // Counters are process-global and other tests only add to them,
        // so the monotone bounds are race-free.
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        assert!(d.sched.schedules >= 1, "schedule not recorded: {d:?}");
        assert!(
            d.sched.bundles >= nb as u64,
            "{nb} bundles not recorded: {d:?}"
        );
    }
}
