//! Order statistics for the benchmark's timings.

/// Samples that must lie beyond the tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentile never reported beyond this one. On a shared
/// two-vCPU guest, calls beyond it wait on hypervisor preemption: over
/// runs of one build, the interquartile range of `small_stream`'s p99
/// was 27–63 % of its median, that of its p90 3–7 %.
pub const TAIL_MAX: f64 = 90.0;

/// The median of `xs` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    // `99.9 / 100 * 10000` is 9990.000000000002 in binary floating
    // point; shave the representation error before rounding up.
    let exact = p / 100.0 * n as f64;
    ((exact * (1.0 - 1e-12)).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[nearest_rank(p, sorted.len()) - 1])
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples strictly beyond its nearest rank, i.e. the rank `n - 10`,
/// capped at [`TAIL_MAX`]; `None` when fewer than 20 samples leave
/// that rank below the median. It moves smoothly with `n`, so runs
/// with a few more or fewer calls report nearly the same percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_MIN_BEYOND {
        return None;
    }
    Some((100.0 * (n - TAIL_MIN_BEYOND) as f64 / n as f64).min(TAIL_MAX))
}
