//! Per-call samples of one closed-loop run and the end-to-end
//! statistics computed from them.
//!
//! Every attempted call is counted. A call fails if it returns an error
//! (a `TransposeAborted`, a non-zero CLI exit) or if its output fails
//! the correctness check, which runs outside the timed region. Failed
//! calls stay in `attempted` and `failed`; only successful calls enter
//! the throughput and latency samples.

use crate::stats;

/// One timed, successful call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Eq. 37 bytes of the call: `2 * m * n * elem`.
    pub bytes: u64,
    /// Wall time of the call.
    pub nanos: u64,
    /// Wall time of the copy reference of the call's bytes.
    pub copy_nanos: u64,
}

/// The end-to-end record of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Calls attempted, successful or not.
    pub attempted: u64,
    /// Calls that errored or failed their check.
    pub failed: u64,
    /// Successful calls, in call order.
    pub samples: Vec<Sample>,
    /// Bytes moved by the interleaved copy reference, Eq. 37 accounting
    /// (a copy of `B` bytes reads and writes them: `2 * B`).
    pub copy_bytes: u64,
    /// Wall time of the copy reference.
    pub copy_nanos: u64,
    /// The latest copy reference's wall time, paired with the calls
    /// recorded after it.
    last_copy_nanos: u64,
}

/// Throughput in GB/s of `bytes` moved in `nanos`; 0 for no time.
pub fn gbps(bytes: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        bytes as f64 / nanos as f64
    }
}

impl Tally {
    /// Record one call: `result` is what it returned and `check` verifies
    /// its output (run only when `result` is `Ok`, after the timed
    /// region). Returns whether the call succeeded.
    pub fn record<E>(
        &mut self,
        bytes: u64,
        nanos: u64,
        result: Result<(), E>,
        check: impl FnOnce() -> bool,
    ) -> bool {
        self.attempted += 1;
        let ok = result.is_ok() && check();
        if ok {
            self.samples.push(Sample {
                bytes,
                nanos,
                copy_nanos: self.last_copy_nanos,
            });
        } else {
            self.failed += 1;
        }
        ok
    }

    /// Record one run of the copy reference, made on the bytes of the
    /// calls recorded after it.
    pub fn record_copy(&mut self, bytes: u64, nanos: u64) {
        self.copy_bytes += bytes;
        self.copy_nanos += nanos;
        self.last_copy_nanos = nanos;
    }

    /// Failed calls over attempted calls.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Eq. 37 throughput over the successful calls:
    /// `sum(bytes) / sum(time)`, in GB/s.
    pub fn gbps(&self) -> f64 {
        gbps(
            self.samples.iter().map(|s| s.bytes).sum(),
            self.samples.iter().map(|s| s.nanos).sum(),
        )
    }

    /// Copy rate of the copy references over the whole run, in GB/s.
    pub fn copy_gbps(&self) -> f64 {
        gbps(self.copy_bytes, self.copy_nanos)
    }

    /// The median over calls of the call's Eq. 37 throughput over the
    /// rate of the copy of its bytes made just before it (equal bytes,
    /// so the copy's time over the call's). A median of per-call ratios
    /// keeps the host out twice: the copy slows with the host, and the
    /// calls a stall hits fall in the tail.
    pub fn frac_of_copy(&self) -> f64 {
        let fracs: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.nanos > 0 && s.copy_nanos > 0)
            .map(|s| s.copy_nanos as f64 / s.nanos as f64)
            .collect();
        stats::median(&fracs).unwrap_or(0.0)
    }

    /// Call wall times in milliseconds, ascending.
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self.samples.iter().map(|s| s.nanos as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Median (nearest-rank 50th percentile) call wall time in
    /// milliseconds.
    pub fn p50_ms(&self) -> f64 {
        stats::percentile(&self.sorted_ms(), 50.0).unwrap_or(0.0)
    }

    /// The tail latency: `(percentile, milliseconds)` at the highest
    /// percentile with ten samples beyond it (see
    /// [`stats::tail_percentile`]), or the median when there are too few
    /// samples for one.
    pub fn tail_ms(&self) -> (f64, f64) {
        let ms = self.sorted_ms();
        let p = stats::tail_percentile(ms.len()).unwrap_or(50.0);
        (p, stats::percentile(&ms, p).unwrap_or(0.0))
    }
}
