//! Intensive randomized soak tests — run explicitly with
//! `cargo test --release --test soak -- --ignored`.
//!
//! These push far more shapes, sizes and engine combinations than the
//! default suites (minutes, not seconds). They exist for pre-release
//! confidence sweeps and for reproducing rare shape-dependent bugs.
//! Shapes and payloads come from the deterministic
//! `ipt_core::check::Rng`, so every sweep is reproducible.

use ipt::prelude::*;
use ipt_core::check::{reference_transpose, Rng};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the soak tests: the fault soak forces fault injection, the
/// recovery budget and the pool width process-wide, which would fail the
/// sibling sweeps if they ran beside it in other test threads.
static SOAK_LOCK: Mutex<()> = Mutex::new(());

/// Take the soak lock, and make sure the disjointness checker is live
/// before any soak test's first parallel call: the checker reads
/// `IPT_CHECK` once per process, and the fault soak's skews are only
/// detected with it on.
fn soak_lock() -> MutexGuard<'static, ()> {
    let guard = SOAK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("IPT_CHECK", "1");
    guard
}

#[test]
#[ignore = "soak: minutes of randomized sweeps; run with -- --ignored"]
fn soak_every_engine_thousands_of_shapes() {
    let _serial = soak_lock();
    let mut rng = Rng::new(0xdead_5eed);
    let mut scratch = Scratch::new();
    for round in 0..2000 {
        let m = rng.range(1..300);
        let n = rng.range(1..300);
        let input: Vec<u64> = (0..m * n).map(|_| rng.next_u64()).collect();
        let want = reference_transpose(&input, m, n, Layout::RowMajor);

        let mut a = input.clone();
        ipt_core::c2r(&mut a, m, n, &mut scratch);
        assert_eq!(a, want, "core {m}x{n} round {round}");

        let mut a = input.clone();
        ipt_parallel::c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        assert_eq!(a, want, "parallel {m}x{n} round {round}");

        let mut a = input.clone();
        ipt_core::noncopy::c2r_swaps(&mut a, m, n);
        assert_eq!(a, want, "noncopy {m}x{n} round {round}");

        let mut a = input.clone();
        ipt_aos_soa::soa_to_aos(&mut a, n, m).unwrap();
        assert_eq!(a, want, "soa_to_aos {m}x{n} round {round}");

        if round % 4 == 0 {
            let mut a = input.clone();
            ipt_baselines::transpose_sung(&mut a, m, n);
            assert_eq!(a, want, "sung {m}x{n} round {round}");

            let mut a = input.clone();
            ipt_baselines::transpose_gustavson(&mut a, m, n);
            assert_eq!(a, want, "gustavson {m}x{n} round {round}");
        }
    }
}

#[test]
#[ignore = "soak: large-matrix stress; run with -- --ignored"]
fn soak_large_matrices() {
    let _serial = soak_lock();
    let mut rng = Rng::new(42);
    let mut scratch = Scratch::new();
    for _ in 0..8 {
        let m = rng.range(1000..4000);
        let n = rng.range(1000..4000);
        let mut a: Vec<u64> = (0..m * n).map(|i| i as u64).collect();
        let orig = a.clone();
        ipt_parallel::c2r_parallel(&mut a, m, n, &ParOptions::default()).unwrap();
        // Spot-check the permutation without a full reference buffer.
        for _ in 0..1000 {
            let i = rng.range(0..m);
            let j = rng.range(0..n);
            assert_eq!(a[j * m + i], orig[i * n + j], "{m}x{n} ({i},{j})");
        }
        ipt_core::r2c(&mut a, m, n, &mut scratch);
        assert_eq!(a, orig, "{m}x{n} round trip");
    }
}

#[test]
#[ignore = "soak: erased element-size sweep; run with -- --ignored"]
fn soak_erased_all_element_sizes() {
    let _serial = soak_lock();
    let mut rng = Rng::new(7);
    for elem in 1..=64usize {
        let m = rng.range(2..60);
        let n = rng.range(2..60);
        let orig: Vec<u8> = (0..m * n * elem).map(|_| rng.next_u64() as u8).collect();
        let mut a = orig.clone();
        ipt_core::erased::transpose_erased(&mut a, m, n, elem, Layout::RowMajor);
        let mut b = orig.clone();
        ipt_parallel::transpose_bytes(&mut b, m, n, elem, Layout::RowMajor, Algorithm::Auto)
            .unwrap();
        assert!(b == a, "transpose_bytes elem={elem} {m}x{n}");
        for i in 0..n {
            for j in 0..m {
                assert_eq!(
                    &a[(i * m + j) * elem..(i * m + j + 1) * elem],
                    &orig[(j * n + i) * elem..(j * n + i + 1) * elem],
                    "elem={elem} ({i},{j})"
                );
            }
        }
        ipt_core::erased::transpose_erased(&mut a, n, m, elem, Layout::RowMajor);
        assert_eq!(a, orig, "elem={elem} round trip");
    }
}

#[test]
#[ignore = "soak: warp-sim exhaustive (m, lanes) grid; run with -- --ignored"]
fn soak_warp_all_geometries() {
    let _serial = soak_lock();
    for m in 1..=48usize {
        for lanes in 1..=48usize {
            let data: Vec<u32> = (0..(m * lanes) as u32).collect();
            let mut warp = Warp::from_matrix(&data, m, lanes);
            warp_sim::c2r_in_register(&mut warp);
            let mut want = data.clone();
            ipt_core::c2r(&mut want, m, lanes, &mut Scratch::new());
            assert_eq!(warp.as_matrix(), &want[..], "{m}x{lanes}");
            warp_sim::r2c_in_register(&mut warp);
            assert_eq!(warp.as_matrix(), &data[..], "{m}x{lanes} inverse");
        }
    }
}

/// Fault soak: thousands of randomized shapes under forced panic and
/// skew injection, alternating the recovery budget between 0 (the
/// containment contract: every injected panic must surface as a
/// structured abort, never a crash or silent tear, and every injected
/// skew must be caught by the disjointness checker) and 2 (the
/// self-healing contract: every faulted run must complete with Ok and
/// byte-identical output), across 1/2/4-thread pools. Compiled only
/// with the `fault-inject` feature; run with
/// `cargo test --features fault-inject --test soak -- --ignored`.
#[cfg(feature = "fault-inject")]
#[test]
#[ignore = "soak: minutes of fault-injected sweeps; run with -- --ignored"]
fn soak_faults_always_contained_and_detected() {
    let _serial = soak_lock();
    use ipt::core::kernels::faulty::{self, FaultMode};
    use ipt::pool::recovery;

    let mut rng = Rng::new(0xfa_17_50_a1);
    let mut contained = 0u64;
    let mut detected = 0u64;
    let mut recovered = 0u64;
    for round in 0..1500 {
        let m = rng.range(2..256);
        let n = rng.range(2..256);
        let threads = [1, 2, 4][rng.range(0..3)];
        ipt::pool::set_num_threads(threads);

        // Alternate panic and skew rounds on the default engine; skews
        // need the checker live.
        let mode = if round % 2 == 0 {
            FaultMode::Panic(0.02)
        } else {
            FaultMode::Skew(0.1)
        };
        let opts = ParOptions::default();
        // Arm recovery on a third of the rounds: those runs
        // must *complete* despite the injected faults.
        let armed = round % 3 == 2;
        recovery::force_retry(if armed { 2 } else { 0 });
        faulty::force(Some(mode));
        let mut a: Vec<u64> = (0..(m * n) as u64).collect();
        // Half the rounds run R2C, whose engine opens with the fused
        // inverse column shuffle (its staged-gather site).
        let r2c = round % 4 >= 2;
        let want = if r2c {
            let mut w = a.clone();
            ipt_core::r2c(&mut w, m, n, &mut Scratch::new());
            w
        } else {
            reference_transpose(&a, m, n, ipt_core::Layout::RowMajor)
        };
        let (p0, s0, _) = faulty::injection_counts();
        let result = if r2c {
            ipt_parallel::r2c_parallel(&mut a, m, n, &opts)
        } else {
            ipt_parallel::c2r_parallel(&mut a, m, n, &opts)
        };
        let (p1, s1, _) = faulty::injection_counts();
        faulty::unforce();
        recovery::unforce_retry();

        let injected = (p1 - p0) + (s1 - s0);
        match result {
            Err(e) => {
                assert!(injected > 0, "round {round}: abort without injection: {e}");
                assert!(!armed, "round {round}: armed run failed to recover: {e}");
                if s1 > s0 {
                    assert!(
                        e.source.payload.contains("disjointness")
                            || e.source.payload.contains("fault injection"),
                        "round {round}: {e}"
                    );
                    detected += 1;
                } else {
                    contained += 1;
                }
            }
            Ok(()) => {
                if armed && injected > 0 {
                    recovered += 1;
                } else {
                    assert_eq!(injected, 0, "round {round} {m}x{n}: fault went unnoticed");
                }
                assert_eq!(a, want, "round {round} {m}x{n}: wrong transpose");
            }
        }
    }
    assert!(
        contained > 0 && detected > 0 && recovered > 0,
        "{contained} contained / {detected} detected / {recovered} recovered"
    );
}
