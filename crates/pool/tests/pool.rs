//! Behavioral contract of the executor: sequential equivalence, exact
//! range coverage, worker-private state, panic containment, and the
//! resident workers' concurrency: concurrent and nested callers, width
//! changes between dispatches, and stats that are exact on return.

use ipt_pool::{Pool, Scratch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A parallel map must equal the plain sequential loop, for every thread
/// count — in particular `threads == 1`, which must take the inline path.
#[test]
fn one_thread_equals_sequential() {
    let n = 10_007usize;
    let mut want = vec![0u64; n];
    for (i, v) in want.iter_mut().enumerate() {
        *v = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
    }
    for threads in [1usize, 2, 3, 8] {
        let mut got = vec![0u64; n];
        Pool::new(threads)
            .par_chunks_exact_mut(
                &mut got,
                1,
                1,
                || (),
                |_, i, cell| {
                    cell[0] = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                },
            )
            .unwrap();
        assert_eq!(got, want, "threads={threads}");
    }
}

/// Every index in the range is visited exactly once, whatever the grain
/// and thread count — no gaps, no overlaps at chunk boundaries.
#[test]
fn chunks_cover_range_exactly_once() {
    for (start, end) in [(0usize, 1usize), (0, 97), (13, 14), (5, 1000), (0, 64)] {
        for threads in [1usize, 2, 4, 7] {
            for grain in [1usize, 3, 50, 1000] {
                let len = end - start;
                let visits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                Pool::new(threads)
                    .par_chunks(start..end, grain, |sub| {
                        for i in sub {
                            visits[i - start].fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .unwrap();
                for (off, v) in visits.iter().enumerate() {
                    assert_eq!(
                        v.load(Ordering::Relaxed),
                        1,
                        "index {} visited wrong number of times \
                         ({start}..{end}, threads={threads}, grain={grain})",
                        start + off
                    );
                }
            }
        }
    }
}

/// Subranges handed to workers must tile the range: sorted by start, each
/// begins where the previous ended.
#[test]
fn chunk_boundaries_tile_the_range() {
    let subs = Mutex::new(Vec::new());
    Pool::new(5)
        .par_chunks(100..1100, 1, |sub| {
            subs.lock().unwrap().push(sub);
        })
        .unwrap();
    let mut subs = subs.lock().unwrap().clone();
    subs.sort_by_key(|r| r.start);
    assert_eq!(subs.len(), 5);
    assert_eq!(subs.first().unwrap().start, 100);
    assert_eq!(subs.last().unwrap().end, 1100);
    for pair in subs.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "gap or overlap: {pair:?}");
    }
}

/// Each worker gets its own `init`-created state: mutations never leak
/// between workers, and states are created once per worker, not per chunk.
#[test]
fn per_worker_state_is_not_shared() {
    let threads = 4usize;
    let blocks = 64usize;
    let inits = AtomicUsize::new(0);
    let mut data = vec![(0usize, 0usize); blocks]; // (worker id, per-worker seq)
    Pool::new(threads)
        .par_chunks_exact_mut(
            &mut data,
            1,
            1,
            || (inits.fetch_add(1, Ordering::Relaxed), 0usize),
            |(id, seq), _, block| {
                *seq += 1;
                block[0] = (*id, *seq);
            },
        )
        .unwrap();
    assert_eq!(
        inits.load(Ordering::Relaxed),
        threads,
        "one init per worker"
    );
    // Per worker id, the recorded sequence numbers must be 1..=k with no
    // interleaving from other workers — the state was private and reused.
    let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for &(id, seq) in &data {
        per_worker[id].push(seq);
    }
    for (id, seqs) in per_worker.iter().enumerate() {
        assert!(!seqs.is_empty(), "worker {id} did no work");
        let want: Vec<usize> = (1..=seqs.len()).collect();
        assert_eq!(seqs, &want, "worker {id} state was shared or re-created");
    }
}

/// Scratch buffers stay worker-local too: concurrent workers hammering
/// their own scratch never observe each other's contents.
#[test]
fn per_worker_scratch_buffers_are_private() {
    let n = 256usize;
    let mut out = vec![0u64; n];
    Pool::new(4)
        .par_chunks_exact_mut(&mut out, 1, 1, Scratch::<u64>::new, |scratch, i, cell| {
            let tag = i as u64 + 1;
            let buf = scratch.filled_buf(32, tag);
            // If another worker shared this scratch, some slot would hold
            // a foreign tag.
            assert!(buf.iter().all(|&v| v == tag));
            cell[0] = buf.iter().sum::<u64>();
        })
        .unwrap();
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, 32 * (i as u64 + 1));
    }
}

/// A panic in any worker must reach the caller — contained as a
/// structured `PoolError`, never swallowed by a resident worker and never
/// unwinding into the caller.
#[test]
fn worker_panics_surface_as_pool_error() {
    let err = Pool::new(4)
        .par_chunks(0..1000, 1, |sub| {
            if sub.contains(&777) {
                panic!("boom in worker");
            }
        })
        .unwrap_err();
    assert_eq!(err.payload, "boom in worker");

    // Inline (single-chunk) path reports the same structure.
    let err = Pool::new(1)
        .par_chunks(0..10, 1, |_| panic!("boom inline"))
        .unwrap_err();
    assert_eq!((err.worker, err.chunk), (0, 0));
    assert_eq!(err.payload, "boom inline");
}

/// The global free functions honor `set_num_threads`.
#[test]
fn global_pool_width_is_configurable() {
    let _serial = width_lock();
    // Note: the override is process-global; restore it before returning so
    // parallel-running tests in this binary see the default again.
    ipt_pool::set_num_threads(2);
    assert_eq!(Pool::global().threads(), 2);
    let workers = Mutex::new(Vec::new());
    ipt_pool::par_chunks(0..1000, 1, |sub| {
        workers.lock().unwrap().push(sub);
    })
    .unwrap();
    let count = workers.lock().unwrap().len();
    ipt_pool::set_num_threads(0);
    assert_eq!(count, 2);
    assert!(Pool::global().threads() >= 1);
}

/// Serializes the tests that set or read the process-wide width, which
/// `set_num_threads` changes for every test in this binary.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn width_lock() -> std::sync::MutexGuard<'static, ()> {
    WIDTH_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The width the global pool resolves with no `set_num_threads` override:
/// `IPT_THREADS` if set (the CI sanitize matrix sets it), else the
/// hardware's.
fn unforced_width() -> usize {
    match std::env::var("IPT_THREADS") {
        Ok(v) => v.trim().parse().expect("IPT_THREADS is a positive integer"),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Run `f` on its own thread and fail (rather than hang the suite) if it
/// has not finished within a minute.
fn within_a_minute(f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(()) => worker.join().unwrap(),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // `f` panicked: surface its payload.
            std::panic::resume_unwind(worker.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("deadlocked: no progress in 60 s")
        }
    }
}

/// Two threads dispatch on the global pool at once, 1000 rounds each:
/// whichever holds the resident workers uses them, the other runs its
/// parts inline, and every result is exact either way.
#[test]
fn concurrent_callers_on_the_global_pool_are_exact() {
    within_a_minute(|| {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for caller in 0..2u64 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..1000u64 {
                        let n = 64 + (round % 7) as usize * 13;
                        let sum = AtomicUsize::new(0);
                        ipt_pool::par_chunks(0..n, 1, |sub| {
                            sum.fetch_add(sub.sum::<usize>(), Ordering::Relaxed);
                        })
                        .unwrap();
                        assert_eq!(
                            sum.into_inner(),
                            n * (n - 1) / 2,
                            "caller {caller} round {round}"
                        );

                        let mut v = vec![0u64; n];
                        ipt_pool::par_chunks_exact_mut(
                            &mut v,
                            1,
                            1,
                            || (),
                            |_, i, cell| {
                                cell[0] = i as u64 * 3 + caller + round;
                            },
                        )
                        .unwrap();
                        assert!(
                            v.iter()
                                .enumerate()
                                .all(|(i, &x)| x == i as u64 * 3 + caller + round),
                            "caller {caller} round {round}"
                        );
                    }
                });
            }
        });
    });
}

/// A dispatch made from inside a running part — on the calling thread
/// and on resident workers alike — runs inline and completes.
#[test]
fn nested_dispatch_from_inside_a_part_completes() {
    within_a_minute(|| {
        let total = AtomicUsize::new(0);
        Pool::new(4)
            .par_chunks(0..8, 1, |outer| {
                for _ in outer {
                    Pool::new(4)
                        .par_chunks(0..100, 1, |inner| {
                            total.fetch_add(inner.len(), Ordering::Relaxed);
                        })
                        .unwrap();
                }
            })
            .unwrap();
        assert_eq!(total.into_inner(), 800);
    });
}

/// A contained panic leaves the resident workers healthy: the very next
/// dispatch runs every part, with every worker id.
#[test]
fn dispatch_after_a_contained_panic_runs_every_part() {
    for _ in 0..20 {
        let err = Pool::new(4)
            .par_chunks(0..4, 1, |sub| {
                if sub.start % 2 == 1 {
                    panic!("odd part fails");
                }
            })
            .unwrap_err();
        assert_eq!(err.worker, 1, "{err:?}");
        let ids = Mutex::new(Vec::new());
        Pool::new(4)
            .par_chunks(0..4, 1, |sub| {
                ids.lock().unwrap().push((ipt_pool::current_worker(), sub));
            })
            .unwrap();
        let mut ids = ids.into_inner().unwrap();
        ids.sort_by_key(|(_, sub)| sub.start);
        assert_eq!(ids, (0..4).map(|k| (Some(k), k..k + 1)).collect::<Vec<_>>());
    }
}

/// `set_num_threads` moving between dispatches changes the split at once:
/// the subranges tile the range with the first `len % parts` parts one
/// longer, and the worker ids are exactly `0..parts`.
#[test]
fn width_changes_between_dispatches_split_correctly() {
    let _serial = width_lock();
    let range = 10..47usize;
    for width in [1usize, 4, 2, 0] {
        ipt_pool::set_num_threads(width);
        let parts = if width == 0 { unforced_width() } else { width };
        assert_eq!(ipt_pool::num_threads(), parts);
        let seen = Mutex::new(Vec::new());
        ipt_pool::par_chunks(range.clone(), 1, |sub| {
            seen.lock()
                .unwrap()
                .push((ipt_pool::current_worker().unwrap(), sub));
        })
        .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(id, _)| id);
        let (len, mut lo) = (range.len(), range.start);
        let want: Vec<_> = (0..parts)
            .map(|k| {
                let hi = lo + len / parts + usize::from(k < len % parts);
                let part = (k, lo..hi);
                lo = hi;
                part
            })
            .collect();
        assert_eq!(seen, want, "width {width}");
    }
    ipt_pool::set_num_threads(0);
}

/// Counts a part records on a resident worker are in the snapshot taken
/// the moment the primitive returns — the join orders them before it.
#[test]
fn snapshot_right_after_return_holds_every_part() {
    const NAME: &str = "pool_test_exact_after_return";
    let pool = Pool::new(4);
    for round in 0..200u64 {
        let before = ipt_pool::stats::snapshot();
        pool.par_chunks(0..4, 1, |sub| {
            // A distinct weight per part: a missing part cannot be masked
            // by another's count.
            ipt_pool::stats::record_phase_bytes(NAME, 1 << sub.start);
            ipt_pool::stats::phase(NAME, || ());
        })
        .unwrap();
        let d = ipt_pool::stats::snapshot().delta_since(&before);
        let p = d.phase(NAME).expect("phase recorded");
        assert_eq!((p.calls, p.bytes), (4, 0b1111), "round {round}");
    }
}

/// With nothing set, the global width is the hardware's (read once and
/// cached), and `set_num_threads` still overrides the cached value.
#[test]
fn unforced_width_is_cached_hardware_and_still_overridable() {
    let _serial = width_lock();
    ipt_pool::set_num_threads(0);
    assert_eq!(ipt_pool::num_threads(), unforced_width());
    assert_eq!(ipt_pool::num_threads(), unforced_width()); // cache filled
    ipt_pool::set_num_threads(3);
    assert_eq!(ipt_pool::num_threads(), 3);
    assert_eq!(Pool::global().threads(), 3);
    ipt_pool::set_num_threads(0);
    assert_eq!(ipt_pool::num_threads(), unforced_width());
}
