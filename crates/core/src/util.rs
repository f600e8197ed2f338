//! Concurrency utilities shared by the engine and the algorithms:
//! atomic bitmaps, striped per-vertex locks and exclusive-access slice
//! wrappers.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// A fixed-size bitmap whose bits can be set concurrently.
///
/// Backs dense frontiers and per-vertex "visited" flags.
#[derive(Debug)]
pub struct AtomicBitmap {
    bits: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// Creates a bitmap of `len` zero bits.
    pub fn new(len: usize) -> Self {
        Self {
            bits: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically sets bit `i`; returns `true` if this call flipped it
    /// from 0 to 1 (i.e. the caller won the race).
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        let prev = self.bits[i / 64].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 64].load(Ordering::Relaxed) & (1u64 << (i % 64)) != 0
    }

    /// Counts set bits, in parallel.
    pub fn count_ones(&self) -> usize {
        egraph_parallel::parallel_reduce(
            0..self.bits.len(),
            1 << 14,
            || 0usize,
            |acc, r| {
                acc + self.bits[r]
                    .iter()
                    .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
                    .sum::<usize>()
            },
            |a, b| a + b,
        )
    }

    /// Sums `f(i)` over every set bit, as a parallel reduction over
    /// per-worker partials (no shared accumulator).
    pub fn sum_over_set(&self, f: impl Fn(usize) -> usize + Sync) -> usize {
        egraph_parallel::parallel_reduce(
            0..self.bits.len(),
            1 << 10,
            || 0usize,
            |mut acc, r| {
                for wi in r {
                    let mut word = self.bits[wi].load(Ordering::Relaxed);
                    while word != 0 {
                        let bit = word.trailing_zeros() as usize;
                        acc += f(wi * 64 + bit);
                        word &= word - 1;
                    }
                }
                acc
            },
            |a, b| a + b,
        )
    }

    /// Clears all bits.
    pub fn clear(&self) {
        egraph_parallel::parallel_for(0..self.bits.len(), 1 << 14, |r| {
            for w in &self.bits[r] {
                w.store(0, Ordering::Relaxed);
            }
        });
    }

    /// Calls `f(i)` for every set bit, in parallel.
    pub fn for_each_set(&self, f: impl Fn(usize) + Sync) {
        egraph_parallel::parallel_for(0..self.bits.len(), 1 << 10, |r| {
            for wi in r {
                let mut word = self.bits[wi].load(Ordering::Relaxed);
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    f(wi * 64 + bit);
                    word &= word - 1;
                }
            }
        });
    }

    /// Collects the indices of set bits, sorted ascending.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, w) in self.bits.iter().enumerate() {
            let mut word = w.load(Ordering::Relaxed);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push((wi * 64 + bit) as u32);
                word &= word - 1;
            }
        }
        out
    }
}

/// Striped per-vertex locks: the paper's "push with locks" strategy.
///
/// "In push mode, a vertex pushes updates to all its neighbors, and
/// thus needs to lock them to update their metadata." (§6.1.2). Using
/// one real mutex per vertex would be memory-prohibitive; like
/// practical systems we stripe vertices over a fixed pool of locks.
#[derive(Debug)]
pub struct StripedLocks {
    locks: Vec<Mutex<()>>,
    mask: usize,
}

impl StripedLocks {
    /// Default number of stripes (a multiple of any realistic core
    /// count, small enough to stay cache-resident).
    pub const DEFAULT_STRIPES: usize = 4096;

    /// Creates a pool with `stripes` locks (rounded up to a power of
    /// two).
    pub fn new(stripes: usize) -> Self {
        let stripes = stripes.next_power_of_two().max(1);
        Self {
            locks: (0..stripes).map(|_| Mutex::new(())).collect(),
            mask: stripes - 1,
        }
    }

    /// Runs `f` while holding the lock guarding vertex `v`.
    #[inline]
    pub fn with<R>(&self, v: u32, f: impl FnOnce() -> R) -> R {
        let _guard = self.locks[v as usize & self.mask].lock();
        f()
    }
}

impl Default for StripedLocks {
    fn default() -> Self {
        Self::new(Self::DEFAULT_STRIPES)
    }
}

/// A shared slice whose elements may be written without synchronization
/// by callers that guarantee exclusive access per element.
///
/// This is what makes the paper's lock-free modes expressible in Rust:
/// pull mode gives each destination vertex exactly one writer (itself),
/// and grid rows/columns give each worker an exclusive vertex range, so
/// the data race the type system fears is excluded structurally.
#[derive(Debug)]
pub struct UnsyncSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: the wrapper only hands out raw element access through
// `unsafe` methods whose contracts require the caller to guarantee
// exclusivity (see below); with those contracts upheld, concurrent use
// cannot alias.
unsafe impl<T: Send> Send for UnsyncSlice<'_, T> {}
// SAFETY: same contract-based exclusivity argument.
unsafe impl<T: Send> Sync for UnsyncSlice<'_, T> {}

impl<'a, T> UnsyncSlice<'a, T> {
    /// Wraps an exclusive slice.
    pub fn new(data: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` proves exclusive ownership for `'a`, and
        // `UnsafeCell<T>` has the same layout as `T`.
        let cells = unsafe { &*(data as *mut [T] as *const [UnsafeCell<T>]) };
        Self { data: cells }
    }

    /// Slice length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes `value` to element `i` without synchronization.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently read or write element `i`.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        *self.data[i].get() = value;
    }

    /// Reads element `i` without synchronization.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently write element `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        *self.data[i].get()
    }

    /// Applies `f` to element `i` in place without synchronization.
    ///
    /// # Safety
    ///
    /// No other thread may concurrently access element `i`.
    #[inline]
    pub unsafe fn update(&self, i: usize, f: impl FnOnce(&mut T)) {
        f(&mut *self.data[i].get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_parallel::parallel_for;

    #[test]
    fn bitmap_set_get_count() {
        let b = AtomicBitmap::new(130);
        assert!(b.set(0));
        assert!(!b.set(0));
        assert!(b.set(64));
        assert!(b.set(129));
        assert!(b.get(129));
        assert!(!b.get(128));
        assert_eq!(b.count_ones(), 3);
        assert_eq!(b.to_vec(), vec![0, 64, 129]);
    }

    #[test]
    fn bitmap_concurrent_set_once() {
        let b = AtomicBitmap::new(10_000);
        let winners = std::sync::atomic::AtomicUsize::new(0);
        parallel_for(0..40_000, 64, |r| {
            for i in r {
                if b.set(i % 10_000) {
                    winners.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 10_000);
        assert_eq!(b.count_ones(), 10_000);
    }

    #[test]
    fn bitmap_clear_and_for_each() {
        let b = AtomicBitmap::new(256);
        for i in (0..256).step_by(3) {
            b.set(i);
        }
        let seen = AtomicBitmap::new(256);
        b.for_each_set(|i| {
            assert!(seen.set(i));
        });
        assert_eq!(seen.count_ones(), b.count_ones());
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn striped_locks_serialize_increments() {
        let locks = StripedLocks::new(8);
        let mut counter = 0u64;
        let cell = UnsyncSlice::new(std::slice::from_mut(&mut counter));
        parallel_for(0..10_000, 16, |r| {
            for _ in r {
                locks.with(0, || {
                    // SAFETY: all increments of element 0 are serialized
                    // by the stripe lock for vertex 0.
                    unsafe { cell.update(0, |c| *c += 1) };
                });
            }
        });
        assert_eq!(counter, 10_000);
    }

    #[test]
    fn unsync_slice_disjoint_parallel_writes() {
        let mut data = vec![0u32; 10_000];
        {
            let s = UnsyncSlice::new(&mut data);
            parallel_for(0..10_000, 128, |r| {
                for i in r {
                    // SAFETY: each index is written by exactly one
                    // iteration of the disjoint parallel ranges.
                    unsafe { s.write(i, i as u32) };
                }
            });
        }
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u32);
        }
    }

    #[test]
    fn empty_bitmap() {
        let b = AtomicBitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert!(b.to_vec().is_empty());
    }
}
