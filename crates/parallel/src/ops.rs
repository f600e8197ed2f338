//! Chunked self-scheduling loops over index ranges and slices.
//!
//! These reproduce the paper's work distribution scheme: the iteration
//! space is a shared work queue and every worker repeatedly grabs the
//! next `grain`-sized chunk (one atomic `fetch_add`), so load imbalance
//! between chunks is absorbed without any static partitioning.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool::{broadcast_current, current_num_threads};
use crate::telemetry;

/// Default chunk size for the self-scheduling loops.
///
/// Large enough that the per-chunk `fetch_add` is negligible, small
/// enough to balance skewed per-item costs (power-law vertex degrees).
pub const DEFAULT_GRAIN: usize = 4096;

/// Runs `f` over disjoint sub-ranges covering `range`, in parallel.
///
/// Chunks are handed out dynamically in `grain`-sized units; `f` may be
/// called many times per worker and never with an empty range.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let total = AtomicU64::new(0);
/// egraph_parallel::parallel_for(0..1000, 128, |r| {
///     total.fetch_add(r.len() as u64, Ordering::Relaxed);
/// });
/// assert_eq!(total.load(Ordering::Relaxed), 1000);
/// ```
pub fn parallel_for<F>(range: Range<usize>, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    if len <= grain {
        telemetry::on_chunks(1);
        f(range);
        return;
    }
    let base = range.start;
    let end = range.end;
    let cursor = AtomicUsize::new(base);
    broadcast_current(&|_worker| {
        let mut chunks = 0;
        loop {
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= end {
                break;
            }
            chunks += 1;
            f(start..end.min(start + grain));
        }
        telemetry::on_chunks(chunks);
    });
}

/// Parallel map-reduce over an index range.
///
/// Each worker folds the chunks it grabs into a private accumulator
/// created by `identity`; the per-worker accumulators are then combined
/// sequentially with `combine`.
///
/// # Examples
///
/// ```
/// let max = egraph_parallel::parallel_reduce(
///     0..100usize,
///     16,
///     || 0usize,
///     |acc, r| acc.max(r.end - 1),
///     |a, b| a.max(b),
/// );
/// assert_eq!(max, 99);
/// ```
pub fn parallel_reduce<A, Id, Fold, Combine>(
    range: Range<usize>,
    grain: usize,
    identity: Id,
    fold: Fold,
    combine: Combine,
) -> A
where
    A: Send,
    Id: Fn() -> A + Sync,
    Fold: Fn(A, Range<usize>) -> A + Sync,
    Combine: Fn(A, A) -> A,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return identity();
    }
    if len <= grain {
        telemetry::on_chunks(1);
        return fold(identity(), range);
    }
    let end = range.end;
    let cursor = AtomicUsize::new(range.start);
    // Fixed per-worker result slots: each worker writes only its own
    // index, so the partial collection needs no lock.
    let mut partials: Vec<Option<A>> = (0..current_num_threads()).map(|_| None).collect();
    {
        let slots = SendPtr(partials.as_mut_ptr());
        broadcast_current(&|worker| {
            let mut acc = identity();
            let mut chunks = 0;
            loop {
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= end {
                    break;
                }
                chunks += 1;
                acc = fold(acc, start..end.min(start + grain));
            }
            telemetry::on_chunks(chunks);
            if chunks > 0 {
                // SAFETY: worker ids are dense and unique within the
                // region, so each slot has exactly one writer, and the
                // borrow of `partials` outlives the blocking region.
                unsafe { *slots.get().add(worker.index()) = Some(acc) };
            }
        });
    }
    partials.into_iter().flatten().fold(identity(), combine)
}

/// Runs `f(offset, chunk)` over disjoint `grain`-sized chunks of `data`.
pub fn for_each_chunk<T, F>(data: &[T], grain: usize, f: F)
where
    T: Sync,
    F: Fn(usize, &[T]) + Sync,
{
    parallel_for(0..data.len(), grain, |r| f(r.start, &data[r]));
}

/// Runs `f(offset, chunk)` over disjoint mutable chunks of `data`.
///
/// Every element is visited exactly once; chunks handed to different
/// workers never overlap, which is what makes the aliasing below sound.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_for(0..len, grain, |r| {
        // SAFETY: `parallel_for` hands out disjoint ranges of `0..len`,
        // so each `from_raw_parts_mut` covers elements no other worker
        // touches, and the borrow of `data` outlives the region because
        // `parallel_for` blocks until completion.
        let chunk = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        f(r.start, chunk);
    });
}

/// Builds a `Vec<T>` of length `n` by computing each element in parallel.
///
/// `f(i)` must be pure with respect to the index; elements are written
/// exactly once.
pub fn parallel_init<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit<T>` needs no initialization, and the capacity
    // was just reserved.
    unsafe { out.set_len(n) };
    for_each_chunk_mut(&mut out, grain, |offset, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            slot.write(f(offset + i));
        }
    });
    // SAFETY: every slot in `0..n` was written exactly once above, so
    // the vector is fully initialized; `MaybeUninit<T>` and `T` have the
    // same layout.
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), out.len(), out.capacity())
    }
}

/// Raw pointer wrapper that may cross thread boundaries.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Returns the wrapped pointer (forces whole-struct closure capture).
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced through disjoint chunks (see
// `for_each_chunk_mut`), so concurrent access never aliases.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same reasoning — the wrapper itself exposes no shared access.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(0..n, 777, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        parallel_for(5..5, 16, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_small_range_runs_inline() {
        let hits = AtomicU64::new(0);
        parallel_for(0..3, 100, |r| {
            assert_eq!(r, 0..3);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reduce_sums_match_sequential() {
        let data: Vec<u64> = (0..50_000).map(|i| i * 3 + 1).collect();
        let expected: u64 = data.iter().sum();
        let got = parallel_reduce(
            0..data.len(),
            1000,
            || 0u64,
            |acc, r| acc + data[r].iter().sum::<u64>(),
            |a, b| a + b,
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let got = parallel_reduce(0..0, 8, || 42u32, |a, _| a + 1, |a, b| a + b);
        assert_eq!(got, 42);
    }

    #[test]
    fn chunk_mut_touches_every_element_once() {
        let mut data = vec![0u32; 12_345];
        for_each_chunk_mut(&mut data, 128, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += (offset + i) as u32;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }

    #[test]
    fn parallel_init_matches_serial() {
        let v = parallel_init(10_000, 64, |i| i as u64 * 2);
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as u64 * 2);
        }
    }

    #[test]
    fn parallel_init_empty() {
        let v: Vec<u8> = parallel_init(0, 64, |_| 0);
        assert!(v.is_empty());
    }

    #[test]
    fn parallel_init_drops_values_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let v = parallel_init(1000, 32, |_| Tracked);
        drop(v);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1000);
    }
}
