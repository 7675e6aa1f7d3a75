//! Reusable per-worker scratch storage.
//!
//! Every column-wise step of the decomposition stages data through a small
//! temporary buffer — the CPU stand-in for the paper's §4.5 on-chip row
//! staging. Workers need one such buffer each, sized per call and reused
//! across all the chunks a worker processes. [`Scratch`] wraps that
//! pattern: a growable buffer that hands out exactly-sized slices without
//! reallocating in steady state, so the per-chunk cost after warm-up is a
//! `fill` (or nothing, via [`Scratch::uninit_buf`]'s overwrite contract).
//!
//! [`Scratch::leased`] goes one step further for the pool's resident
//! workers, which outlive any one dispatch: the scratch starts from the
//! buffer this thread retained when its previous lease ended, so a column
//! pass reuses the allocation of the pass before it instead of growing a
//! fresh one per dispatch.

use std::alloc::Layout;
use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;

/// A reusable, growable scratch buffer for `Copy` elements.
///
/// Every buffer request is tallied as either an *allocation* (the request
/// grew the backing storage) or a *reuse* (served entirely from existing
/// capacity); the tallies are buffered locally — no atomics in the hot
/// path — and flushed into [`crate::stats`] when the scratch drops, so
/// [`crate::stats::snapshot`] shows whether workers reach allocation-free
/// steady state.
///
/// A scratch from [`Scratch::leased`] also hands its storage back to the
/// current thread when it drops (see there).
///
/// ```
/// use ipt_pool::Scratch;
///
/// let mut s: Scratch<u64> = Scratch::new();
/// let buf = s.filled_buf(16, 0);
/// assert_eq!(buf.len(), 16);
/// buf[3] = 7;
/// // Subsequent requests reuse the same allocation.
/// assert_eq!(s.filled_buf(8, 1), &[1; 8]);
/// ```
#[derive(Debug, Default)]
pub struct Scratch<T> {
    storage: Vec<T>,
    /// Requests that grew the backing allocation (flushed on drop).
    allocs: u64,
    /// Requests served from existing capacity (flushed on drop).
    reuses: u64,
    /// The largest request made, which bounds what a lease retains.
    peak: usize,
    /// Whether the storage goes back to the thread on drop.
    leased: bool,
}

impl<T: Copy> Scratch<T> {
    /// An empty scratch; storage is allocated on first use.
    pub const fn new() -> Scratch<T> {
        Scratch {
            storage: Vec::new(),
            allocs: 0,
            reuses: 0,
            peak: 0,
            leased: false,
        }
    }

    /// A scratch that starts from the buffer this thread retained from its
    /// previous lease (empty if none fits `T`'s layout) and retains its own
    /// storage again when it drops.
    ///
    /// Each thread retains at most one buffer, no larger than twice the
    /// largest request of the lease that stored it. The largest request of
    /// the column engine is one group's stage, at most `max(1 MiB, m *
    /// max(64, size_of::<T>()))` bytes (`ipt_parallel::cache_aware`'s
    /// `STAGE_BYTES` and `LINE_BYTES`),
    /// so a thread holds `O(max(m, n))` — the paper's auxiliary-space
    /// bound — however tall the matrix. Owned
    /// [`Scratch::capture`] snapshots are never retained. The tallies
    /// flush into [`crate::stats`] on drop, as for any scratch.
    ///
    /// ```
    /// use ipt_pool::{stats, Scratch};
    ///
    /// Scratch::<u64>::leased().filled_buf(64, 0); // grows, then retained
    /// let before = stats::snapshot();
    /// Scratch::<u64>::leased().filled_buf(64, 1); // served from the retained buffer
    /// assert!(stats::snapshot().delta_since(&before).scratch_reuses >= 1);
    /// ```
    pub fn leased() -> Scratch<T> {
        Scratch {
            storage: retained::take(),
            leased: true,
            ..Scratch::new()
        }
    }

    /// A scratch pre-sized for `len`-element requests.
    pub fn with_capacity(len: usize) -> Scratch<T> {
        Scratch {
            storage: Vec::with_capacity(len),
            ..Scratch::new()
        }
    }

    /// Tally whether a `len`-element request grows the allocation.
    #[inline]
    fn note_request(&mut self, len: usize) {
        self.peak = self.peak.max(len);
        if len > self.storage.capacity() {
            self.allocs += 1;
        } else {
            self.reuses += 1;
        }
    }

    /// A `len`-element slice, every element set to `fill`.
    pub fn filled_buf(&mut self, len: usize, fill: T) -> &mut [T] {
        self.note_request(len);
        self.storage.clear();
        self.storage.resize(len, fill);
        &mut self.storage[..]
    }

    /// A `len`-element slice with **unspecified contents** (whatever a
    /// previous request left behind, `fill`-extended as needed). The
    /// caller must overwrite before reading — the usual contract for a
    /// gather destination.
    pub fn uninit_buf(&mut self, len: usize, fill: T) -> &mut [T] {
        self.note_request(len);
        if self.storage.len() < len {
            self.storage.resize(len, fill);
        }
        &mut self.storage[..len]
    }

    /// Current backing capacity, in elements.
    pub fn capacity(&self) -> usize {
        self.storage.capacity()
    }

    /// Copy the elements yielded by `src` into a fresh **owned** buffer —
    /// the undo-snapshot staging hook used by
    /// [`recovery::TaskJournal`](crate::recovery::TaskJournal).
    ///
    /// Unlike [`Scratch::filled_buf`] / [`Scratch::uninit_buf`], the
    /// result must outlive the worker (a snapshot is consumed after the
    /// worker's part has failed and unwound), so it cannot borrow the
    /// reusable storage; each capture is tallied as one allocation so the
    /// per-run cost of arming recovery stays visible in
    /// [`crate::stats::snapshot`].
    pub fn capture(&mut self, len_hint: usize, src: impl IntoIterator<Item = T>) -> Vec<T> {
        self.allocs += 1;
        let mut out = Vec::with_capacity(len_hint);
        out.extend(src);
        out
    }
}

impl<T: Clone> Clone for Scratch<T> {
    /// Clones the storage; the clone starts with fresh (zero) tallies so
    /// no request is ever double-counted.
    fn clone(&self) -> Scratch<T> {
        Scratch {
            storage: self.storage.clone(),
            allocs: 0,
            reuses: 0,
            peak: 0,
            leased: false,
        }
    }
}

impl<T> Drop for Scratch<T> {
    fn drop(&mut self) {
        crate::stats::record_scratch(self.allocs, self.reuses);
        if self.leased {
            let mut storage = std::mem::take(&mut self.storage);
            if storage.capacity() > 2 * self.peak.max(1) {
                storage.clear();
                storage.shrink_to(self.peak);
            }
            retained::put(storage);
        }
    }
}

/// The one buffer each thread retains between leases, type-erased to its
/// element layout so any `T` of the same size and alignment can reuse it.
/// (A `Box<dyn Any>` slot would be safe code, but `Any` needs
/// `T: 'static`, a bound the public generic transposes do not carry.)
mod retained {
    use super::*;

    /// A retained allocation: `cap` elements of layout `elem`, made by a
    /// `Vec` through the global allocator with layout `bytes`.
    pub(super) struct Retained {
        ptr: NonNull<u8>,
        cap: usize,
        elem: Layout,
        bytes: Layout,
    }

    impl Drop for Retained {
        fn drop(&mut self) {
            // SAFETY: `ptr` was allocated by a `Vec` whose allocation has
            // layout `bytes`, and nothing else owns it.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.bytes) };
        }
    }

    thread_local! {
        static RETAINED: Cell<Option<Retained>> = const { Cell::new(None) };
    }

    /// This thread's retained buffer as an empty `Vec<T>`, if its element
    /// layout is `T`'s; otherwise (or with nothing retained) a new `Vec`.
    pub(super) fn take<T>() -> Vec<T> {
        let Some(r) = RETAINED.try_with(Cell::take).ok().flatten() else {
            return Vec::new();
        };
        if r.elem != Layout::new::<T>() {
            return Vec::new(); // `r` drops: one buffer per thread.
        }
        let r = ManuallyDrop::new(r);
        // SAFETY: the allocation came from a `Vec` of `r.cap` elements
        // whose size and alignment equal `T`'s, so it is the allocation a
        // `Vec<T>` of capacity `r.cap` would own; length 0 reads nothing.
        unsafe { Vec::from_raw_parts(r.ptr.as_ptr().cast::<T>(), 0, r.cap) }
    }

    /// Retain `storage`'s allocation for this thread's next lease,
    /// replacing (and freeing) whatever was retained before.
    pub(super) fn put<T>(mut storage: Vec<T>) {
        storage.clear();
        if storage.capacity() == 0 || std::mem::size_of::<T>() == 0 {
            return;
        }
        // A `Vec<T>` of capacity `cap` owns exactly `Layout::array::<T>(cap)`.
        let Ok(bytes) = Layout::array::<T>(storage.capacity()) else {
            return;
        };
        let mut storage = ManuallyDrop::new(storage);
        let r = Retained {
            ptr: NonNull::new(storage.as_mut_ptr().cast::<u8>())
                .expect("a Vec pointer is never null"),
            cap: storage.capacity(),
            elem: Layout::new::<T>(),
            bytes,
        };
        // During thread teardown the slot may be gone; `r` then frees the
        // buffer as the closure drops unrun.
        let _ = RETAINED.try_with(move |slot| slot.set(Some(r)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized_and_filled() {
        let mut s: Scratch<u32> = Scratch::new();
        assert_eq!(s.filled_buf(4, 9), &[9, 9, 9, 9]);
        s.filled_buf(4, 9)[0] = 1;
        // A fresh filled_buf never shows stale data.
        assert_eq!(s.filled_buf(4, 2), &[2; 4]);
    }

    #[test]
    fn reuse_does_not_reallocate() {
        let mut s: Scratch<u8> = Scratch::with_capacity(64);
        let cap = s.capacity();
        for _ in 0..10 {
            s.filled_buf(64, 0);
            s.uninit_buf(32, 0);
        }
        assert_eq!(s.capacity(), cap);
    }

    #[test]
    fn tallies_flush_to_stats_on_drop() {
        let before = crate::stats::snapshot();
        {
            let mut s: Scratch<u8> = Scratch::new();
            s.filled_buf(64, 0); // grows: alloc
            s.filled_buf(64, 0); // fits: reuse
            s.uninit_buf(32, 0); // fits: reuse
        } // drop flushes
        let d = crate::stats::snapshot().delta_since(&before);
        assert!(d.scratch_allocs >= 1, "{d:?}");
        assert!(d.scratch_reuses >= 2, "{d:?}");
    }

    #[test]
    fn capture_returns_owned_bytes_and_tallies_an_alloc() {
        let before = crate::stats::snapshot();
        let snap = {
            let mut s: Scratch<u16> = Scratch::new();
            let snap = s.capture(3, [4u16, 5, 6]);
            // The owned snapshot is independent of the reusable storage.
            s.filled_buf(8, 0);
            snap
        };
        assert_eq!(snap, [4, 5, 6]);
        let d = crate::stats::snapshot().delta_since(&before);
        assert!(d.scratch_allocs >= 1, "{d:?}");
    }

    #[test]
    fn lease_reuses_the_previous_lease_buffer() {
        {
            let mut s: Scratch<u32> = Scratch::leased();
            s.filled_buf(100, 0);
        }
        let mut s: Scratch<u32> = Scratch::leased();
        assert!(s.capacity() >= 100);
        assert_eq!(s.filled_buf(100, 3), &[3; 100]);
        assert_eq!((s.allocs, s.reuses), (0, 1));
        drop(s);
        // Same layout, other type: the buffer serves it too, contents
        // fully rewritten by the request.
        let mut f: Scratch<f32> = Scratch::leased();
        assert!(f.capacity() >= 100);
        assert_eq!(f.filled_buf(4, 1.5), &[1.5; 4]);
    }

    #[test]
    fn lease_retains_at_most_twice_its_largest_request() {
        {
            let mut s: Scratch<u64> = Scratch::leased();
            s.filled_buf(10_000, 0);
        }
        {
            let mut s: Scratch<u64> = Scratch::leased();
            s.filled_buf(16, 0); // served by the big buffer...
        } // ...which this lease shrinks to its own peak before retaining.
        let s: Scratch<u64> = Scratch::leased();
        assert!(s.capacity() >= 16 && s.capacity() <= 32, "{}", s.capacity());
    }

    #[test]
    fn lease_of_another_layout_starts_empty() {
        {
            let mut s: Scratch<u8> = Scratch::leased();
            s.filled_buf(64, 0);
        }
        let s: Scratch<u64> = Scratch::leased();
        assert_eq!(s.capacity(), 0);
        // Zero-sized types never retain anything.
        let mut z: Scratch<()> = Scratch::leased();
        z.filled_buf(8, ());
    }

    #[test]
    fn uninit_buf_grows_on_demand() {
        let mut s: Scratch<u16> = Scratch::new();
        assert_eq!(s.uninit_buf(3, 5), &[5, 5, 5]);
        s.uninit_buf(3, 5)[2] = 8;
        assert_eq!(s.uninit_buf(6, 1)[3..], [1, 1, 1]);
    }
}
