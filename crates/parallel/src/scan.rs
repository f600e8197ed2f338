//! Parallel prefix sums.
//!
//! Prefix sums convert per-vertex counts into CSR offsets and per-bucket
//! histograms into scatter offsets; both the count-sort and radix-sort
//! pre-processing paths of the paper depend on them.

use crate::ops::{for_each_chunk_mut, parallel_for};

/// Element types the scans operate on.
pub trait ScanItem: Copy + Send + Sync {
    /// The additive identity.
    fn zero() -> Self;
    /// Wrapping-free addition; overflow is a caller bug (counts fit the
    /// type by construction).
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_scan_item {
    ($($t:ty),*) => {$(
        impl ScanItem for $t {
            #[inline]
            fn zero() -> Self { 0 }
            #[inline]
            fn add(self, other: Self) -> Self { self + other }
        }
    )*};
}

impl_scan_item!(u32, u64, usize);

const SCAN_BLOCK: usize = 1 << 15;

/// In-place exclusive prefix sum; returns the total of all elements.
///
/// After the call, `data[i]` holds the sum of the original
/// `data[..i]`.
///
/// # Examples
///
/// ```
/// let mut v = vec![3u64, 1, 4, 1, 5];
/// let total = egraph_parallel::exclusive_prefix_sum(&mut v);
/// assert_eq!(total, 14);
/// assert_eq!(v, vec![0, 3, 4, 8, 9]);
/// ```
pub fn exclusive_prefix_sum<T: ScanItem>(data: &mut [T]) -> T {
    if data.len() < 2 * SCAN_BLOCK {
        return exclusive_scan_serial(data);
    }
    // Phase 1: per-block totals.
    let num_blocks = data.len().div_ceil(SCAN_BLOCK);
    let mut block_totals = vec![T::zero(); num_blocks];
    {
        let totals_ptr = SyncSlice(block_totals.as_mut_ptr());
        parallel_for(0..num_blocks, 1, |blocks| {
            for b in blocks {
                let start = b * SCAN_BLOCK;
                let end = data.len().min(start + SCAN_BLOCK);
                let mut sum = T::zero();
                for x in &data[start..end] {
                    sum = sum.add(*x);
                }
                // SAFETY: each block index `b` is visited exactly once,
                // so writes to `block_totals[b]` never alias.
                unsafe { *totals_ptr.get().add(b) = sum };
            }
        });
    }
    // Phase 2: serial scan over the (small) block totals.
    let total = exclusive_scan_serial(&mut block_totals);
    // Phase 3: per-block local scans seeded with the block offset.
    for_each_chunk_mut(data, SCAN_BLOCK, |offset, chunk| {
        let mut running = block_totals[offset / SCAN_BLOCK];
        for x in chunk.iter_mut() {
            let v = *x;
            *x = running;
            running = running.add(v);
        }
    });
    total
}

fn exclusive_scan_serial<T: ScanItem>(data: &mut [T]) -> T {
    let mut running = T::zero();
    for x in data.iter_mut() {
        let v = *x;
        *x = running;
        running = running.add(v);
    }
    running
}

struct SyncSlice<T>(*mut T);

impl<T> SyncSlice<T> {
    /// Returns the wrapped pointer (forces whole-struct closure capture).
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: used only for disjoint per-index writes (see call sites).
unsafe impl<T: Send> Send for SyncSlice<T> {}
// SAFETY: same — no shared mutable access to any single element.
unsafe impl<T: Send> Sync for SyncSlice<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_exclusive(v: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(v.len());
        let mut run = 0u64;
        for &x in v {
            out.push(run);
            run += x;
        }
        (out, run)
    }

    #[test]
    fn small_exclusive_scan() {
        let mut v = vec![1u64, 2, 3, 4];
        let total = exclusive_prefix_sum(&mut v);
        assert_eq!(total, 10);
        assert_eq!(v, vec![0, 1, 3, 6]);
    }

    #[test]
    fn empty_scan() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(exclusive_prefix_sum(&mut v), 0);
    }

    #[test]
    fn large_scan_matches_reference() {
        let v: Vec<u64> = (0..300_000).map(|i| (i * 7 + 3) % 11).collect();
        let (expected, expected_total) = reference_exclusive(&v);
        let mut got = v.clone();
        let total = exclusive_prefix_sum(&mut got);
        assert_eq!(total, expected_total);
        assert_eq!(got, expected);
    }

    #[test]
    fn u32_scan() {
        let mut v = vec![5u32; 10];
        assert_eq!(exclusive_prefix_sum(&mut v), 50);
        assert_eq!(v[9], 45);
    }
}
