//! Worker-local accumulation: per-worker buffers that replace shared,
//! lock-protected collections on hot paths.
//!
//! The paper's end-to-end lens makes per-iteration frontier collection
//! and pre-processing bucketing first-class costs, yet funnelling those
//! through one `Mutex<Vec>` (or one atomic cursor per key) serializes
//! every worker on a shared cache line. [`WorkerLocal<T>`] gives each
//! pool worker a private, cache-line-padded slot keyed by the
//! [`WorkerId`](crate::WorkerId) of the running region, so the common
//! case — a worker appending to its own buffer — touches no shared
//! state at all. [`parallel_collect_ordered`] then concatenates the
//! per-worker buffers into a single allocation with a size prefix sum
//! plus a parallel copy, the frontier-collection scheme of Ligra/GBBS.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::pool::{broadcast_current, current_num_threads, current_worker_index};

/// One per-worker slot, padded to its own cache line pair so that
/// neighboring workers' buffer headers never false-share.
#[repr(align(128))]
struct Slot<T> {
    /// Exclusivity flag: set while a [`WorkerGuard`] is live. Turns any
    /// accidental aliasing (re-entrant borrows, foreign threads mapping
    /// to the same slot) into a panic instead of a data race.
    busy: AtomicBool,
    value: UnsafeCell<T>,
}

/// A value replicated once per worker of the global pool.
///
/// Each worker accesses its own replica through [`WorkerLocal::with`]
/// or [`WorkerLocal::borrow`]; threads outside any parallel region map
/// to slot 0. Access is exclusive per slot and enforced at runtime, so
/// the type is safe even under misuse (a conflicting borrow panics).
///
/// # Examples
///
/// ```
/// use egraph_parallel::{parallel_for, OrderedBuf, WorkerLocal};
///
/// let buffers: WorkerLocal<OrderedBuf<usize>> = WorkerLocal::new(OrderedBuf::new);
/// parallel_for(0..1000, 64, |r| {
///     let mut buf = buffers.borrow();
///     buf.begin_chunk(r.start as u64);
///     r.for_each(|i| buf.push(i));
/// });
/// let all = egraph_parallel::parallel_collect_ordered(buffers);
/// assert_eq!(all, (0..1000).collect::<Vec<_>>());
/// ```
pub struct WorkerLocal<T> {
    slots: Box<[Slot<T>]>,
}

// SAFETY: every access to a slot's `value` goes through the `busy`
// acquire/release protocol below, which guarantees at most one live
// `&mut T` per slot at any time; `T: Send` lets that exclusive access
// hop between threads across regions.
unsafe impl<T: Send> Sync for WorkerLocal<T> {}
// SAFETY: same protocol; ownership transfer of the whole structure is
// plain `Send` of its `T`s.
unsafe impl<T: Send> Send for WorkerLocal<T> {}

impl<T> WorkerLocal<T> {
    /// Creates one slot per worker of the calling thread's active pool
    /// (the global pool unless overridden by [`crate::pool::with_pool`]
    /// or the enclosing region), each initialized by `init`.
    pub fn new(mut init: impl FnMut() -> T) -> Self {
        Self::with_slots(current_num_threads(), &mut init)
    }

    /// Creates `n` slots (clamped to at least 1).
    fn with_slots(n: usize, init: &mut impl FnMut() -> T) -> Self {
        let slots = (0..n.max(1))
            .map(|_| Slot {
                busy: AtomicBool::new(false),
                value: UnsafeCell::new(init()),
            })
            .collect();
        Self { slots }
    }

    /// Number of per-worker slots.
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Borrows the calling worker's slot for the lifetime of the guard.
    ///
    /// Inside a parallel region this is the slot of the executing
    /// [`WorkerId`](crate::WorkerId); outside any region it is slot 0.
    /// Holding the guard across the body of a chunk loop amortizes the
    /// (uncontended) acquisition over many pushes.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already borrowed — a re-entrant borrow on
    /// the same worker, or a thread outside the global pool racing the
    /// region. Both indicate misuse; panicking keeps the type sound.
    #[inline]
    pub fn borrow(&self) -> WorkerGuard<'_, T> {
        let index = current_worker_index()
            .unwrap_or(0)
            .min(self.slots.len() - 1);
        let slot = &self.slots[index];
        assert!(
            slot.busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "WorkerLocal slot {index} is already borrowed (re-entrant or cross-thread access)"
        );
        WorkerGuard { slot }
    }

    /// Runs `f` with exclusive access to the calling worker's value.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.borrow();
        f(&mut guard)
    }

    /// Consumes the structure, returning every slot's value in worker
    /// order (slot 0 first).
    pub fn into_values(self) -> Vec<T> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|slot| slot.value.into_inner())
            .collect()
    }

    /// Iterates over all slot values. Exclusive access to `self` makes
    /// this race-free without touching the busy flags.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|slot| slot.value.get_mut())
    }
}

impl<T> std::fmt::Debug for WorkerLocal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerLocal")
            .field("num_slots", &self.slots.len())
            .finish()
    }
}

/// Exclusive access to one worker's slot; releases on drop.
pub struct WorkerGuard<'a, T> {
    slot: &'a Slot<T>,
}

impl<T> Deref for WorkerGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the busy flag was acquired in `borrow`, so this guard
        // is the only live access to the slot.
        unsafe { &*self.slot.value.get() }
    }
}

impl<T> DerefMut for WorkerGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: same exclusivity as `deref`.
        unsafe { &mut *self.slot.value.get() }
    }
}

impl<T> Drop for WorkerGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.slot.busy.store(false, Ordering::Release);
    }
}

/// A worker-local buffer whose contents are grouped into *chunks*
/// carrying caller-supplied order keys.
///
/// Dynamically scheduled regions hand chunks to whichever worker is
/// free, so plain slot-order concatenation would make the output order
/// depend on the schedule. Callers that tag each
/// chunk with a deterministic key (e.g. the chunk's start index) get
/// the schedule back out of the result: [`parallel_collect_ordered`]
/// reassembles chunks by key, producing the exact sequence a serial
/// execution would have — at any thread count.
#[derive(Debug)]
pub struct OrderedBuf<T> {
    items: Vec<T>,
    /// `(order, begin)` per chunk, in append order; a chunk extends to
    /// the next chunk's `begin` (or the end of `items`).
    chunks: Vec<(u64, usize)>,
}

impl<T> OrderedBuf<T> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self {
            items: Vec::new(),
            chunks: Vec::new(),
        }
    }

    /// Starts a new chunk: subsequent pushes belong to it. Items pushed
    /// before any `begin_chunk` call collate with order key 0.
    #[inline]
    pub fn begin_chunk(&mut self, order: u64) {
        self.chunks.push((order, self.items.len()));
    }

    /// Starts — or continues — a trailing `u64::MAX`-keyed chunk for
    /// items without a meaningful position (they collate after every
    /// keyed chunk). Consecutive unordered appends share one chunk.
    #[inline]
    pub fn begin_unordered_chunk(&mut self) {
        if !matches!(self.chunks.last(), Some(&(u64::MAX, _))) {
            self.chunks.push((u64::MAX, self.items.len()));
        }
    }

    /// Appends one item to the current chunk.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Appends a batch to the current chunk.
    pub fn extend_from_slice(&mut self, batch: &[T])
    where
        T: Clone,
    {
        self.items.extend_from_slice(batch);
    }

    /// Number of buffered items (across all chunks).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T> Default for OrderedBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Concatenates per-worker [`OrderedBuf`]s into one allocation with
/// chunks sorted by `(order key, slot, position)`: a size prefix sum
/// assigns each chunk a disjoint output range, then all workers copy
/// chunks in parallel. With unique order keys the result is independent
/// of how chunks were scheduled across workers.
pub fn parallel_collect_ordered<T: Send>(locals: WorkerLocal<OrderedBuf<T>>) -> Vec<T> {
    let mut buffers = locals.into_values();
    let total: usize = buffers.iter().map(|b| b.items.len()).sum();
    if total == 0 {
        return Vec::new();
    }
    // Chunk descriptors: (order, slot, begin, end).
    let mut descs: Vec<(u64, u32, usize, usize)> = Vec::new();
    for (slot, buf) in buffers.iter().enumerate() {
        if buf.items.is_empty() {
            continue;
        }
        let first_begin = buf.chunks.first().map_or(buf.items.len(), |c| c.1);
        if first_begin > 0 {
            descs.push((0, slot as u32, 0, first_begin));
        }
        for (i, &(order, begin)) in buf.chunks.iter().enumerate() {
            let end = buf.chunks.get(i + 1).map_or(buf.items.len(), |c| c.1);
            if end > begin {
                descs.push((order, slot as u32, begin, end));
            }
        }
    }
    let in_order = descs.windows(2).all(|w| w[0] <= w[1]);
    descs.sort_unstable();
    // Fast path: one non-empty buffer whose chunks already sit in key
    // order (serial runs, single worker) — reuse its allocation.
    if in_order && buffers.iter().filter(|b| !b.is_empty()).count() == 1 {
        let index = buffers.iter().position(|b| !b.is_empty()).unwrap();
        return std::mem::take(&mut buffers[index]).items;
    }

    let mut out: Vec<T> = Vec::with_capacity(total);
    {
        let mut offset = 0usize;
        let parts: Vec<Part<T>> = descs
            .iter()
            .map(|&(_, slot, begin, end)| {
                let part = Part {
                    // SAFETY: `begin <= items.len()` by construction.
                    src: unsafe { buffers[slot as usize].items.as_ptr().add(begin) },
                    len: end - begin,
                    offset,
                };
                offset += end - begin;
                part
            })
            .collect();
        let out_ptr = OutPtr(out.as_mut_ptr());
        let cursor = AtomicUsize::new(0);
        let parts = &parts;
        // Shared-cursor handout (not worker-id indexing) so a nested,
        // inline-serialized region still copies every part.
        broadcast_current(&|_worker| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= parts.len() {
                break;
            }
            let part = &parts[i];
            // SAFETY: each part is claimed once; output ranges are
            // disjoint by the running-offset assignment, which covers
            // exactly `total` reserved elements.
            unsafe {
                std::ptr::copy_nonoverlapping(part.src, out_ptr.get().add(part.offset), part.len);
            }
        });
    }
    for buf in &mut buffers {
        // SAFETY: the elements were moved (bit-copied) into `out`;
        // zeroing the length forgets them in the source so they drop
        // exactly once, via `out`.
        unsafe { buf.items.set_len(0) };
    }
    // SAFETY: the parts' output ranges tile `0..total`.
    unsafe { out.set_len(total) };
    out
}

/// One source chunk of a `parallel_collect_ordered`: where it starts,
/// how many elements it holds, and its offset in the output.
struct Part<T> {
    src: *const T,
    len: usize,
    offset: usize,
}

// SAFETY: the source ranges are only read (bit-copied) and each part is
// claimed by exactly one worker via the shared cursor.
unsafe impl<T: Send> Send for Part<T> {}
// SAFETY: same single-claimant argument.
unsafe impl<T: Send> Sync for Part<T> {}

/// Raw output pointer that may cross thread boundaries (writes are to
/// disjoint ranges, see `parallel_collect_ordered`).
struct OutPtr<T>(*mut T);

impl<T> OutPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: only dereferenced for disjoint per-buffer ranges.
unsafe impl<T: Send> Send for OutPtr<T> {}
// SAFETY: same disjointness argument.
unsafe impl<T: Send> Sync for OutPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_for;

    #[test]
    fn serial_access_uses_slot_zero() {
        let local: WorkerLocal<u32> = WorkerLocal::new(|| 0);
        local.with(|v| *v += 5);
        local.with(|v| *v += 2);
        let values = local.into_values();
        assert_eq!(values[0], 7);
        assert!(values[1..].iter().all(|&v| v == 0));
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn reentrant_borrow_panics() {
        let local: WorkerLocal<u32> = WorkerLocal::new(|| 0);
        let _outer = local.borrow();
        let _inner = local.borrow();
    }

    #[test]
    fn ordered_collect_drops_non_copy_values_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct Tracked(#[allow(dead_code)] Box<u64>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let locals: WorkerLocal<OrderedBuf<Tracked>> = WorkerLocal::new(OrderedBuf::new);
        parallel_for(0..1000, 64, |r| {
            let mut buf = locals.borrow();
            buf.begin_chunk(r.start as u64);
            for i in r {
                buf.push(Tracked(Box::new(i as u64)));
            }
        });
        let all = parallel_collect_ordered(locals);
        assert_eq!(all.len(), 1000);
        drop(all);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn ordered_collect_reassembles_serial_order() {
        // Chunks land on arbitrary workers; keys must reassemble the
        // serial sequence regardless.
        let n = 50_000usize;
        let locals: WorkerLocal<OrderedBuf<usize>> = WorkerLocal::new(OrderedBuf::new);
        parallel_for(0..n, 137, |r| {
            let mut buf = locals.borrow();
            buf.begin_chunk(r.start as u64);
            for i in r {
                if i % 5 == 0 {
                    buf.push(i);
                }
            }
        });
        let all = parallel_collect_ordered(locals);
        let expected: Vec<usize> = (0..n).filter(|i| i % 5 == 0).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn ordered_collect_sorts_scrambled_slots() {
        // Hand-place chunks on the "wrong" slots in the "wrong" local
        // order; collection must still honor the keys.
        let mut locals: WorkerLocal<OrderedBuf<u32>> = WorkerLocal::new(OrderedBuf::new);
        let n = locals.num_slots();
        for (slot, buf) in locals.iter_mut().enumerate() {
            // Descending keys within each slot, interleaved across slots.
            for k in (0..4).rev() {
                buf.begin_chunk((k * n + slot) as u64);
                buf.push((k * n + slot) as u32);
            }
        }
        let all = parallel_collect_ordered(locals);
        let expected: Vec<u32> = (0..4 * n as u32).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn ordered_collect_empty_and_prefix_items() {
        let locals: WorkerLocal<OrderedBuf<u32>> = WorkerLocal::new(OrderedBuf::new);
        assert!(parallel_collect_ordered(locals).is_empty());

        // Items pushed before any begin_chunk collate with key 0.
        let locals: WorkerLocal<OrderedBuf<u32>> = WorkerLocal::new(OrderedBuf::new);
        locals.with(|buf| {
            buf.push(1);
            buf.begin_chunk(7);
            buf.push(2);
        });
        assert_eq!(parallel_collect_ordered(locals), vec![1, 2]);
    }

    #[test]
    fn guard_amortizes_across_chunk() {
        // The guard pattern used by the engine drivers: one borrow per
        // chunk, many pushes.
        let locals: WorkerLocal<OrderedBuf<u32>> = WorkerLocal::new(OrderedBuf::new);
        parallel_for(0..10_000, 256, |r| {
            let mut buf = locals.borrow();
            buf.begin_chunk(r.start as u64);
            for i in r {
                if i % 3 == 0 {
                    buf.push(i as u32);
                }
            }
        });
        let all = parallel_collect_ordered(locals);
        let expected: Vec<u32> = (0..10_000).filter(|i| i % 3 == 0).collect();
        assert_eq!(all, expected);
    }
}
