//! The resident workers: threads started on first use that live for the
//! whole process, parked between dispatches.
//!
//! A dispatch of `parts` parts runs part 0 on the calling thread and part
//! `k` on resident worker `k`. The workers are one shared set, grown on
//! demand to the widest dispatch seen; a narrower dispatch posts to a
//! prefix of them. The set's mutex doubles as the "in use" flag: a
//! dispatch that cannot take it at once — a nested dispatch from inside a
//! running part, or a second thread dispatching while the workers are
//! busy — never waits for them and runs all its parts inline, in order.
//!
//! Soundness of the borrowed job: each part runner is a lifetime-erased
//! `&dyn Fn(usize)` pointing into the dispatcher's stack. The dispatcher
//! leaves [`run_parts`] only after a drop guard has seen every posted
//! worker count the job's latch down (Release on the worker, Acquire on
//! the dispatcher), and a worker touches the job only before its count
//! down. So no path returns, or unwinds, while a worker can still reach
//! the closure, and every write a part made — data, stats tallies,
//! flushed scratch counters — is visible to the caller on return.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker, and a dispatcher awaiting its join, spins
/// before parking. On a 2-vCPU KVM guest an empty 2-part dispatch takes
/// a median 27–36 µs when the worker must be woken from `park`, against
/// 1.6–2.2 µs while it still spins (EXPERIMENTS.md, "Resident worker
/// pool"). The window sits just above that wake cost, so a gap shorter
/// than one wake-up (the phases of one transpose) never pays it, and an
/// idle pool burns at most one wake-up's worth of CPU before it sleeps.
const SPIN: Duration = Duration::from_micros(50);

/// One posted dispatch. It lives on the dispatcher's stack for the
/// duration of [`run_parts`].
struct Job {
    /// Runs part `k`, lifetime-erased (see the module docs).
    part: &'static (dyn Fn(usize) + Sync),
    /// Posted worker parts that have not finished yet.
    pending: AtomicUsize,
    /// The dispatching thread, unparked by the last worker to finish.
    caller: Thread,
}

/// One resident worker: its mailbox and its thread handle (to unpark it).
struct Worker {
    mailbox: Arc<AtomicPtr<Job>>,
    thread: Thread,
}

/// The resident workers; worker `i` runs part `i + 1`. Holding the lock
/// is holding the workers for one dispatch.
static RESIDENT: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

/// Spin for up to [`SPIN`], then park, until `ready` yields a value.
/// Each spin burst ends in a `yield_now`, so spinners give way when the
/// pool is wider than the machine: 4 parts on 2 vCPUs took 108 µs per
/// empty dispatch with pure spinning and 6 µs with the yield. Parking is
/// woken by `unpark` on this thread (or spuriously); either way the
/// condition is re-checked.
fn spin_then_park<R>(mut ready: impl FnMut() -> Option<R>) -> R {
    let start = Instant::now();
    loop {
        if let Some(r) = ready() {
            return r;
        }
        if start.elapsed() < SPIN {
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            thread::yield_now();
        } else {
            thread::park();
        }
    }
}

/// A resident worker's whole life: take a job, run its part, count down.
fn worker_main(mailbox: Arc<AtomicPtr<Job>>, part: usize) {
    loop {
        let job = spin_then_park(|| {
            let p = mailbox.load(Ordering::Acquire);
            (!p.is_null()).then_some(p)
        });
        mailbox.store(ptr::null_mut(), Ordering::Relaxed);
        // SAFETY: the dispatcher keeps `*job` alive until `pending` drops
        // to zero, which happens only at this worker's count down below;
        // nothing reads `job` after it.
        let job = unsafe { &*job };
        let caller = job.caller.clone();
        // Parts contain their own panics (the executor's chunk
        // boundaries); this outer net only keeps the worker and the latch
        // alive should bookkeeping outside those boundaries ever unwind.
        let _ = catch_unwind(AssertUnwindSafe(|| (job.part)(part)));
        if job.pending.fetch_sub(1, Ordering::Release) == 1 {
            caller.unpark();
        }
    }
}

/// Grow the resident set to `want` workers. A failed spawn stops the
/// growth; the dispatch then runs the parts without a worker inline. The
/// workers are never joined: they live as long as the process, and their
/// loop catches any unwinding, so a dropped handle hides no panic.
fn grow(workers: &mut Vec<Worker>, want: usize) {
    while workers.len() < want {
        let part = workers.len() + 1;
        let mailbox = Arc::new(AtomicPtr::new(ptr::null_mut()));
        let theirs = Arc::clone(&mailbox);
        let spawned = thread::Builder::new()
            .name(format!("ipt-pool-{part}"))
            .spawn(move || worker_main(theirs, part));
        match spawned {
            Ok(handle) => workers.push(Worker {
                mailbox,
                thread: handle.thread().clone(),
            }),
            Err(_) => break,
        }
    }
}

/// Awaits a job's latch on drop, so the dispatcher's frame (and the
/// closure it lends) outlives every worker part, on unwinding too.
struct Join<'a>(&'a Job);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        spin_then_park(|| (self.0.pending.load(Ordering::Acquire) == 0).then_some(()));
    }
}

/// Run `part(0..parts)`: part 0 on the calling thread, the others on
/// resident workers — or every part inline, in order, when the workers
/// are held by another dispatch. Returns once every part has finished.
pub(crate) fn run_parts(parts: usize, part: &(dyn Fn(usize) + Sync)) {
    let mut workers = match RESIDENT.try_lock() {
        Ok(guard) => guard,
        // Every update of the set is one `push`, so a poisoned set is
        // still a valid one.
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            (0..parts).for_each(part);
            return;
        }
    };
    grow(&mut workers, parts - 1);
    // SAFETY: only the lifetime is erased. Workers reach `part` only
    // through `job`, which is posted after `join` exists; `join` drops
    // (on return and on unwind) before `job` and this borrow end, and
    // waits until every posted worker has counted down, after its last
    // use of the job.
    let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(part) };
    let job = Job {
        part: erased,
        pending: AtomicUsize::new(0),
        caller: thread::current(),
    };
    let join = Join(&job);
    let posted = workers.len().min(parts - 1);
    for w in &workers[..posted] {
        // Relaxed suffices: the Release store below publishes the count
        // with the job, and the latch's own pairing is the workers'
        // Release count down against `join`'s Acquire load.
        job.pending.fetch_add(1, Ordering::Relaxed);
        w.mailbox
            .store(ptr::from_ref(&job).cast_mut(), Ordering::Release);
        w.thread.unpark();
    }
    part(0);
    // Parts whose worker could not be spawned run here, after part 0.
    (posted + 1..parts).for_each(part);
    drop(join);
    drop(workers);
}
