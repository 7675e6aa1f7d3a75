//! Hang watchdog: deadline monitoring for dispatched pool tasks.
//!
//! Panic containment and undo/retry recovery cover every fault that
//! *unwinds* — but a task that simply stops making progress (deadlock,
//! livelock, an injected `hang:<rate>` fault) defeats both: the
//! dispatch's join waits forever and the process wedges with no diagnostic. This
//! module is the net for that failure class.
//!
//! When `IPT_WATCHDOG_MS` is set (or a test forces a timeout), every
//! dispatched worker part registers itself with a deadline before running
//! its body; block-granular primitives refresh the deadline per block. A
//! lazily spawned monitor thread scans the registry and, on the first
//! expired entry, prints a report naming the worker, phase, and work item
//! and exits the whole process with [`EXIT_HANG`] — a stuck thread cannot
//! be cancelled from safe Rust, so a prompt, attributable exit is the
//! honest contract (callers that must survive a hang run the transpose in
//! a child process and watch for exit code 5).
//!
//! Unarmed (the default), the only cost is one relaxed atomic load per
//! dispatched part: no registry, no monitor thread, no locks.
//!
//! The deadline granularity matches the containment granularity:
//! per-block for `par_chunks_exact_mut`, per worker subrange for the
//! range primitives — so `IPT_WATCHDOG_MS` must budget for a worker's
//! whole subrange on range dispatches, not a single index.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::stats;

/// Process exit code when the watchdog detects a hung task (`0` ok, `2`
/// usage, `3` bench gate, `4` transpose aborted, `5` hang).
pub const EXIT_HANG: i32 = 5;

/// `IPT_WATCHDOG_MS` parsed once.
static ENV_TIMEOUT: OnceLock<Option<usize>> = OnceLock::new();

/// Programmatic override: `0` = unset (use the environment), `1` =
/// forced off, else timeout millis + 2.
static FORCED_TIMEOUT: AtomicU64 = AtomicU64::new(0);

/// The armed watchdog timeout, if any: the forced override if set, else
/// `IPT_WATCHDOG_MS` (a positive integer of milliseconds; garbage warns
/// once and disarms, like every other knob).
pub fn timeout() -> Option<Duration> {
    match FORCED_TIMEOUT.load(Ordering::Relaxed) {
        0 => ipt_core::env::parse_once(&ENV_TIMEOUT, "IPT_WATCHDOG_MS", |raw| {
            ipt_core::env::parse_positive("IPT_WATCHDOG_MS", raw)
        })
        .map(|ms| Duration::from_millis(ms as u64)),
        1 => None,
        word => Some(Duration::from_millis(word - 2)),
    }
}

/// Override [`timeout`] for this process: `Some(ms)` arms the watchdog,
/// `None` forces it off. **Arming spawns the exiting monitor on the next
/// dispatch** — in-process tests should drive [`scan_expired`] directly
/// against guards instead.
pub fn force_timeout(ms: Option<u64>) {
    let word = match ms {
        None => 1,
        Some(ms) => ms.saturating_add(2),
    };
    FORCED_TIMEOUT.store(word, Ordering::Relaxed);
}

/// Drop any [`force_timeout`] override, restoring `IPT_WATCHDOG_MS`
/// resolution.
pub fn unforce_timeout() {
    FORCED_TIMEOUT.store(0, Ordering::Relaxed);
}

/// One registered in-flight task.
struct ActiveTask {
    id: u64,
    worker: usize,
    chunk: usize,
    phase: &'static str,
    deadline: Instant,
}

/// In-flight task registry. Locked once per dispatched part (plus once
/// per block when armed on a block primitive) — never on the unarmed
/// path.
static REGISTRY: Mutex<Vec<ActiveTask>> = Mutex::new(Vec::new());

/// Registration ids, so guards remove exactly their own entry.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A hung-task report from [`scan_expired`].
#[derive(Debug, Clone)]
pub struct HangReport {
    /// Worker part id of the stuck task (part 0 is the calling thread).
    pub worker: usize,
    /// The work item it was on (block index, or subrange start).
    pub chunk: usize,
    /// The stats phase active when the task registered (best effort).
    pub phase: &'static str,
    /// How far past its deadline the task is.
    pub overdue: Duration,
}

/// RAII registration of one dispatched part: deregisters on drop (normal
/// completion *and* unwinding — a panicking part is the containment
/// layer's to report, not the watchdog's).
pub(crate) struct WatchGuard {
    id: u64,
    timeout: Duration,
}

impl WatchGuard {
    /// Refresh this part's deadline and work item (block primitives call
    /// this once per block, so the deadline bounds one block's work).
    pub(crate) fn tick(&self, chunk: usize) {
        let mut reg = REGISTRY.lock().unwrap();
        if let Some(t) = reg.iter_mut().find(|t| t.id == self.id) {
            t.chunk = chunk;
            t.deadline = Instant::now() + self.timeout;
        }
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        REGISTRY.lock().unwrap().retain(|t| t.id != self.id);
    }
}

/// Register a part without spawning the monitor — the testable core of
/// [`watch`].
fn register(worker: usize, chunk: usize, timeout: Duration) -> WatchGuard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    REGISTRY.lock().unwrap().push(ActiveTask {
        id,
        worker,
        chunk,
        phase: stats::current_phase_name(),
        deadline: Instant::now() + timeout,
    });
    WatchGuard { id, timeout }
}

/// Arm one dispatched part under the watchdog, if a timeout is
/// configured: registers the part and ensures the monitor thread runs.
/// Returns `None` (and does nothing) when the watchdog is off.
pub(crate) fn watch(worker: usize, chunk: usize) -> Option<WatchGuard> {
    let timeout = timeout()?;
    ensure_monitor(timeout);
    Some(register(worker, chunk, timeout))
}

/// Every registered task past its deadline at `now`, worst-overdue
/// first. Exit-free — the monitor calls this and then exits; tests call
/// it directly.
pub fn scan_expired(now: Instant) -> Vec<HangReport> {
    let reg = REGISTRY.lock().unwrap();
    let mut out: Vec<HangReport> = reg
        .iter()
        .filter(|t| now >= t.deadline)
        .map(|t| HangReport {
            worker: t.worker,
            chunk: t.chunk,
            phase: t.phase,
            overdue: now - t.deadline,
        })
        .collect();
    out.sort_by_key(|r| std::cmp::Reverse(r.overdue));
    out
}

/// Spawn the monitor thread once. It scans at a quarter of the timeout
/// (clamped to [10, 100] ms) and, on the first expired task, reports and
/// exits the process with [`EXIT_HANG`].
fn ensure_monitor(timeout: Duration) {
    static MONITOR: OnceLock<()> = OnceLock::new();
    MONITOR.get_or_init(|| {
        let interval = (timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(100));
        std::thread::Builder::new()
            .name("ipt-watchdog".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let expired = scan_expired(Instant::now());
                if let Some(r) = expired.first() {
                    stats::record_watchdog_trip();
                    eprintln!(
                        "ipt watchdog: worker {} hung at chunk {} in phase {} \
                         ({} ms past its deadline); exiting with code {}",
                        r.worker,
                        r.chunk,
                        r.phase,
                        r.overdue.as_millis(),
                        EXIT_HANG
                    );
                    std::process::exit(EXIT_HANG);
                }
            })
            .expect("spawning the watchdog monitor thread");
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests drive `register`/`scan_expired` directly and never call
    // `watch`/`ensure_monitor`: the monitor thread exits the process on
    // expiry, which is exactly wrong inside a test binary. They also
    // share the process-global REGISTRY with any armed dispatch, so they
    // only assert on their own worker ids (8xx range).

    #[test]
    fn expired_tasks_are_reported_and_drop_deregisters() {
        let g = register(801, 7, Duration::ZERO);
        let reports = scan_expired(Instant::now() + Duration::from_millis(5));
        let mine: Vec<_> = reports.iter().filter(|r| r.worker == 801).collect();
        assert_eq!(mine.len(), 1, "{reports:?}");
        assert_eq!(mine[0].chunk, 7);
        assert!(mine[0].overdue >= Duration::from_millis(5));
        drop(g);
        let after = scan_expired(Instant::now() + Duration::from_secs(1));
        assert!(
            after.iter().all(|r| r.worker != 801),
            "dropped guard still registered: {after:?}"
        );
    }

    #[test]
    fn unexpired_tasks_are_not_reported() {
        let _g = register(802, 0, Duration::from_secs(3600));
        let reports = scan_expired(Instant::now());
        assert!(reports.iter().all(|r| r.worker != 802), "{reports:?}");
    }

    #[test]
    fn tick_refreshes_the_deadline_and_chunk() {
        // Original deadline: t0 + 200ms. After sleeping 150ms, the tick
        // pushes it to ~t0 + 350ms, so a scan at ~t0 + 250ms only stays
        // quiet if the refresh actually happened.
        let g = register(803, 0, Duration::from_millis(200));
        std::thread::sleep(Duration::from_millis(150));
        g.tick(41);
        let reports = scan_expired(Instant::now() + Duration::from_millis(100));
        assert!(
            reports.iter().all(|r| r.worker != 803),
            "ticked deadline must not expire: {reports:?}"
        );
        drop(g);
        // After expiry the refreshed chunk is what gets reported.
        let g = register(803, 0, Duration::from_millis(1));
        g.tick(42);
        let reports = scan_expired(Instant::now() + Duration::from_secs(1));
        let mine: Vec<_> = reports.iter().filter(|r| r.worker == 803).collect();
        assert_eq!(mine.len(), 1, "{reports:?}");
        assert_eq!(mine[0].chunk, 42);
    }

    #[test]
    fn forced_timeout_round_trips_and_off_beats_env() {
        force_timeout(Some(250));
        assert_eq!(timeout(), Some(Duration::from_millis(250)));
        force_timeout(None);
        assert_eq!(timeout(), None);
        unforce_timeout();
        if std::env::var_os("IPT_WATCHDOG_MS").is_none() {
            assert_eq!(timeout(), None);
        }
    }
}
