//! Row-shuffle load balance and kernel-dispatch observability on skewed
//! matrix shapes.
//!
//! One `#[test]` per file: the exact per-worker assertions need a process
//! with no concurrent stats recorders.

use ipt_core::check::fill_pattern;
use ipt_core::index::C2rParams;
use ipt_core::permute;
use ipt_parallel::rows;
use ipt_pool::stats;

/// Run the dispatched parallel row shuffle, asserting it matches the
/// sequential Eq. 31 reference, and return the stats delta.
fn shuffled_delta(m: usize, n: usize) -> stats::PoolStats {
    let p = C2rParams::new(m, n);
    let mut a = vec![0u64; m * n];
    fill_pattern(&mut a);
    let mut reference = a.clone();
    let before = stats::snapshot();
    rows::row_shuffle_parallel(&mut a, &p).unwrap();
    let d = stats::snapshot().delta_since(&before);
    let mut tmp = vec![0u64; n];
    permute::row_shuffle_gather(&mut reference, &p, &mut tmp);
    assert_eq!(a, reference, "{m}x{n}: parallel shuffle correct");
    d
}

fn assert_balanced(d: &stats::PoolStats, rows: usize, label: &str) {
    let per_worker: Vec<u64> = d.workers.iter().map(|w| w.chunks).collect();
    assert!(!per_worker.is_empty(), "{label}: workers recorded");
    let (min, max) = (
        *per_worker.iter().min().unwrap(),
        *per_worker.iter().max().unwrap(),
    );
    assert!(
        max - min <= 1,
        "{label}: perfect balance violated: {per_worker:?}"
    );
    assert_eq!(
        per_worker.iter().sum::<u64>(),
        rows as u64,
        "{label}: every row assigned"
    );
}

#[test]
fn skewed_shapes_balance_and_record_the_dispatched_kernel() {
    ipt_pool::set_num_threads(4);

    // Tall-skinny, coprime dims: 1999 nine-element rows -> 4 parts of
    // 500/500/500/499; c = 1 makes the dispatcher pick scalar.
    let d = shuffled_delta(1999, 9);
    assert_balanced(&d, 1999, "1999x9");
    assert_eq!(d.kernel("scalar").unwrap().hits, 1, "coprime -> scalar");
    assert!(d.kernel("block8").is_none());

    // Wide: 9 rows of 1999 -> 4 parts of 3/2/2/2.
    let d = shuffled_delta(9, 1999);
    assert_balanced(&d, 9, "9x1999");
    assert_eq!(d.kernel("scalar").unwrap().hits, 1);

    // Large-gcd shape (c = 256 >= 16): the run-blocked kernel dispatches.
    let d = shuffled_delta(1280, 256);
    assert_balanced(&d, 1280, "1280x256");
    assert_eq!(d.kernel("block8").unwrap().hits, 1, "c = 256 -> block8");
}
