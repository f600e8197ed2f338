//! Stable, out-of-place radix partitioning.
//!
//! # A level
//!
//! Everything here is built from one routine, `partition_level`: cut
//! a range into a few contiguous chunks, histogram each chunk's digits
//! into its own row of a cursor table, turn the table into exclusive
//! write cursors with a transposed prefix sum (bucket-major, then
//! chunk-major inside a bucket), and scatter every chunk through its
//! row into the destination. Chunks are scanned in order and own
//! disjoint cursor ranges, so a level is **stable**, needs no atomics,
//! and produces the same bytes at every pool width. The chunk count is
//! at most four per pool thread — the table is O(threads × 2^bits),
//! never O(n) — and a range of at most 32 Ki records (or any range
//! inside a parallel region) is a single chunk.
//!
//! # The digit plan
//!
//! [`digit_plan`] splits a `key_bits`-bit key into `⌈key_bits / 11⌉`
//! digits of near-equal width: up to 11 bits is one level (the grid's
//! 64-cell key), 18 bits is 9 + 9, 24 bits is 8 + 8 + 8. Eleven bits is
//! where one chunk's cursor row (2^11 × 8 bytes = 16 KiB) still fits
//! half an L1d; spreading the bits evenly means no level is a 2-bit
//! remnant that costs a full pass over the records to split four ways.
//! This deviates from the paper's fixed 8-bit digit: on this data (18-
//! to 20-bit keys) it is two passes instead of three.
//!
//! # The two entry points
//!
//! [`radix_partition_by_key`] is what the layout builders call. It is
//! most-significant-digit first and level by level: level 1 reads the
//! caller's *borrowed* slice (chunk-parallel) and lands in the vector
//! that is returned; every later level re-partitions one bucket of the
//! level before it where it lies, through a bucket-sized staging copy —
//! buckets side by side on the pool, each with an L1-resident cursor
//! row and a staging buffer that fits L2. A bucket above `n / (4 ×
//! threads)` (skewed ids, a star) is chunk-parallel itself instead of
//! one serial task. Each level's bucket ends become the next level's
//! ranges, and the last level's are the `offsets` table, so the result
//! is the `{ sorted, offsets }` of
//! [`count_sort_by_key`](crate::count_sort_by_key), record for record.
//! Transient footprint: input + output + one staged bucket per worker —
//! 2× the array, the same as count sort, rising towards 3× only when a
//! single bucket holds most of the input.
//!
//! [`radix_sort_by_key`] keeps the in-place signature for callers that
//! want a sorted slice and no offsets. It runs the same level over the
//! whole slice once per digit, least significant first, ping-ponging
//! between the slice and one scratch buffer (stability makes LSD
//! correct), with one copy back when the plan has an odd length.

use std::mem::MaybeUninit;

use egraph_parallel::{
    current_num_threads, current_worker_index, for_each_chunk_mut, parallel_for,
};

use crate::count::CountSorted;

/// Widest digit of a level: 2^11 `u64` cursors are 16 KiB per chunk.
const MAX_DIGIT_BITS: u32 = 11;
/// A range at or below this many records is partitioned as one chunk.
const CHUNK_GRAIN: usize = 1 << 15;
/// Chunks per pool thread of a chunk-parallel level (self-scheduled, so
/// a few per thread absorb a slow chunk).
const CHUNKS_PER_THREAD: usize = 4;

/// The digit widths a `key_bits`-bit key is partitioned by, most
/// significant first: `⌈key_bits / 11⌉` levels with the bits spread
/// evenly (the wider digits first). `key_bits` is clamped to `1..=64`.
///
/// # Examples
///
/// ```
/// assert_eq!(egraph_sort::digit_plan(6), vec![6]);
/// assert_eq!(egraph_sort::digit_plan(18), vec![9, 9]);
/// assert_eq!(egraph_sort::digit_plan(23), vec![8, 8, 7]);
/// ```
pub fn digit_plan(key_bits: u32) -> Vec<u32> {
    let key_bits = key_bits.clamp(1, 64);
    let levels = key_bits.div_ceil(MAX_DIGIT_BITS);
    let (width, wider) = (key_bits / levels, key_bits % levels);
    (0..levels).map(|l| width + u32::from(l < wider)).collect()
}

/// Groups `input` by key with a most-significant-digit-first radix
/// partition (see the [module docs](self)), returning the records
/// grouped by key and the `num_keys + 1` group offsets — exactly what
/// [`count_sort_by_key`](crate::count_sort_by_key) returns for the same
/// arguments.
///
/// The partition is **stable** and the output is identical at every
/// pool width and inside a parallel region (where it runs serially).
/// `key` must be a pure function of the record.
///
/// # Panics
///
/// Panics if `key` returns a value `>= num_keys`, before anything is
/// written.
///
/// # Examples
///
/// ```
/// let data = vec![(2u32, 'a'), (0, 'b'), (2, 'c'), (1, 'd')];
/// let out = egraph_sort::radix_partition_by_key(&data, 3, |&(k, _)| k as u64);
/// assert_eq!(out.offsets, vec![0, 1, 2, 4]);
/// assert_eq!(out.sorted, vec![(0, 'b'), (1, 'd'), (2, 'a'), (2, 'c')]);
/// ```
pub fn radix_partition_by_key<T, K>(input: &[T], num_keys: usize, key: K) -> CountSorted<T>
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    let n = input.len();
    if n == 0 {
        return CountSorted {
            sorted: Vec::new(),
            offsets: vec![0; num_keys + 1],
        };
    }
    assert!(
        num_keys > 0,
        "radix_partition_by_key: {n} records but no keys"
    );
    let max_key = num_keys as u64 - 1;
    let plan = digit_plan(crate::key_bits(num_keys));
    let mut sorted = uninit_vec::<T>(n);
    let out = Buf(sorted.as_mut_ptr().cast::<T>());
    // A bucket above this is partitioned chunk-parallel from this
    // thread; the rest run side by side, one serial task each.
    let big = (n / (4 * current_num_threads())).max(CHUNK_GRAIN);

    // `bounds[p]..bounds[p + 1]` is bucket `p` of the level before;
    // level 1 sees the whole input as one bucket.
    let mut bounds = vec![0u64, n as u64];
    let mut shift: u32 = plan.iter().sum();
    for (level, &bits) in plan.iter().enumerate() {
        shift -= bits;
        let mask = (1u64 << bits) - 1;
        let digit = |t: &T| {
            let k = key(t);
            assert!(
                k <= max_key,
                "radix_partition_by_key: key {k} out of range (num_keys = {num_keys})"
            );
            ((k >> shift) & mask) as usize
        };
        // Buckets of this level that a key below `num_keys` can land
        // in; at the last level that is `num_keys` and `next` is the
        // offset table.
        let live = (max_key >> shift) as usize + 1;
        let mut next = vec![0u64; live + 1];
        {
            let ends = Buf(next[1..].as_mut_ptr());
            let bounds = &bounds;
            let run_bucket = |p: usize, stage: &mut Vec<MaybeUninit<T>>, rows: &mut Vec<u64>| {
                let (lo, hi) = (bounds[p] as usize, bounds[p + 1] as usize);
                let first = p << bits;
                // SAFETY: bucket `p` owns entries `first..first + 2^bits`
                // of `next[1..]` (clipped to its `live` entries; `first <
                // live` because `p` is a live bucket of the level before)
                // and `lo..hi` of `out`, which the level before filled;
                // buckets are visited once each.
                unsafe {
                    let ends = std::slice::from_raw_parts_mut(
                        ends.get().add(first),
                        (live - first).min(1 << bits),
                    );
                    // Level 1 reads the caller's slice; a later level
                    // re-partitions its bucket of `out` where it lies,
                    // through a staging copy.
                    let src = if level == 0 {
                        input
                    } else {
                        staged(
                            std::slice::from_raw_parts(out.get().add(lo), hi - lo),
                            stage,
                        )
                    };
                    partition_level(src, out, lo, ends, rows, &digit);
                }
            };
            let is_big = |p: usize| (bounds[p + 1] - bounds[p]) as usize > big;
            let buckets = bounds.len() - 1;
            {
                let (mut stage, mut rows) = (Vec::new(), Vec::new());
                for p in (0..buckets).filter(|&p| is_big(p)) {
                    run_bucket(p, &mut stage, &mut rows);
                }
            }
            let grain = buckets.div_ceil(64 * current_num_threads());
            parallel_for(0..buckets, grain, |ps| {
                let (mut stage, mut rows) = (Vec::new(), Vec::new());
                for p in ps.filter(|&p| !is_big(p)) {
                    run_bucket(p, &mut stage, &mut rows);
                }
            });
        }
        bounds = next;
    }
    debug_assert_eq!(bounds.len(), num_keys + 1);
    debug_assert_eq!(bounds[num_keys], n as u64);
    CountSorted {
        // SAFETY: level 1 wrote all `n` slots and every later level
        // permuted them bucket by bucket.
        sorted: unsafe { assume_init(sorted) },
        offsets: bounds,
    }
}

/// Sorts `data` by `key`, treating keys as `key_bits`-bit integers.
///
/// Keys wider than `key_bits` bits are a caller bug: the high bits are
/// ignored, so such records end up ordered by their low `key_bits` bits
/// only. `key_bits` is clamped to `1..=64`.
///
/// The sort is **stable**: records with equal keys keep their input
/// order. It is one whole-slice [level](self) per digit of
/// [`digit_plan`], least significant first, between `data` and one
/// scratch buffer of the same size.
///
/// # Examples
///
/// ```
/// let mut v: Vec<u64> = vec![170, 45, 75, 90, 802, 24, 2, 66];
/// egraph_sort::radix_sort_by_key(&mut v, 10, |&x| x);
/// assert_eq!(v, vec![2, 24, 45, 66, 75, 90, 170, 802]);
/// ```
pub fn radix_sort_by_key<T, K>(data: &mut [T], key_bits: u32, key: K)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    let plan = digit_plan(key_bits);
    let mut scratch = uninit_vec::<T>(n);
    let bufs = [
        Buf(data.as_mut_ptr()),
        Buf(scratch.as_mut_ptr().cast::<T>()),
    ];
    let (mut ends, mut rows) = (Vec::new(), Vec::new());
    let mut shift = 0u32;
    for (pass, &bits) in plan.iter().rev().enumerate() {
        let mask = (1u64 << bits) - 1;
        let digit = |t: &T| ((key(t) >> shift) & mask) as usize;
        ends.clear();
        ends.resize(1 << bits, 0);
        // SAFETY: both buffers hold `n` records and are distinct; the
        // source of pass 0 is `data`, and every later pass reads the
        // buffer the pass before filled.
        unsafe {
            let src = std::slice::from_raw_parts(bufs[pass % 2].get(), n);
            partition_level(src, bufs[(pass + 1) % 2], 0, &mut ends, &mut rows, &digit);
        }
        shift += bits;
    }
    if plan.len() % 2 == 1 {
        // SAFETY: an odd number of passes left the result in `scratch`,
        // fully written by the last pass.
        let sorted = unsafe { std::slice::from_raw_parts(scratch.as_ptr().cast::<T>(), n) };
        copy_parallel(sorted, data);
    }
}

/// One level: the stable partition of `src` into `dst[base..base +
/// src.len()]` by `digit`, which must be pure and below `ends.len()`.
/// On return `ends[b]` is where bucket `b` ends in `dst` (so bucket `b`
/// is `ends[b - 1]..ends[b]`, bucket 0 starting at `base`). `rows` is
/// scratch for the cursor table, reused by callers that make many
/// calls.
///
/// # Safety
///
/// `dst` must be valid for writes of `base + src.len()` records, must
/// not overlap `src`, and nothing else may access `dst[base..base +
/// src.len()]` during the call.
unsafe fn partition_level<T, D>(
    src: &[T],
    dst: Buf<T>,
    base: usize,
    ends: &mut [u64],
    rows: &mut Vec<u64>,
    digit: &D,
) where
    T: Copy + Send + Sync,
    D: Fn(&T) -> usize + Sync,
{
    let buckets = ends.len();
    let threads = current_num_threads();
    let chunks = if threads == 1 || current_worker_index().is_some() {
        1
    } else {
        src.len()
            .div_ceil(CHUNK_GRAIN)
            .clamp(1, CHUNKS_PER_THREAD * threads)
    };
    let chunk_len = src.len().div_ceil(chunks);
    let chunk =
        |c: usize| &src[(c * chunk_len).min(src.len())..((c + 1) * chunk_len).min(src.len())];
    rows.clear();
    rows.resize(chunks * buckets, 0);
    let table = Buf(rows.as_mut_ptr());
    // SAFETY: row `c` has one user at a time — `parallel_for` visits
    // each chunk once per region and the prefix between the regions is
    // serial — and `rows` is not touched except through `table` until
    // this function returns.
    let row =
        |c: usize| unsafe { std::slice::from_raw_parts_mut(table.get().add(c * buckets), buckets) };

    parallel_for(0..chunks, 1, |cs| {
        for c in cs {
            let counts = row(c);
            for t in chunk(c) {
                counts[digit(t)] += 1;
            }
        }
    });

    // Transposed prefix: bucket totals, their exclusive prefix from
    // `base`, then every count becomes the start of its (chunk,
    // bucket) range — bucket-major, chunks in order inside a bucket.
    ends.fill(0);
    for c in 0..chunks {
        for (end, &count) in ends.iter_mut().zip(row(c).iter()) {
            *end += count;
        }
    }
    let mut start = base as u64;
    for end in ends.iter_mut() {
        let total = *end;
        *end = start;
        start += total;
    }
    debug_assert_eq!(start as usize, base + src.len());
    for c in 0..chunks {
        for (end, cell) in ends.iter_mut().zip(row(c)) {
            let count = *cell;
            *cell = *end;
            *end += count;
        }
    }

    parallel_for(0..chunks, 1, |cs| {
        for c in cs {
            let cursors = row(c);
            for t in chunk(c) {
                let cursor = &mut cursors[digit(t)];
                // SAFETY: the prefix above gave every (chunk, bucket)
                // pair a disjoint range of `base..base + src.len()`
                // sized by the histogram of the same pure `digit`, so
                // each position is in bounds and written once.
                unsafe { dst.get().add(*cursor as usize).write(*t) };
                *cursor += 1;
            }
        }
    });
}

/// Copies `bucket` into `stage` (reused across buckets) and returns the
/// copy, so `bucket`'s own range can be the destination of a level.
fn staged<'a, T: Copy + Send + Sync>(bucket: &[T], stage: &'a mut Vec<MaybeUninit<T>>) -> &'a [T] {
    stage.clear();
    stage.reserve(bucket.len());
    // SAFETY: `MaybeUninit<T>` requires no initialization and has the
    // layout of `T`, so initialized records can be viewed as it; the
    // copy then initializes every slot of `stage`.
    unsafe {
        stage.set_len(bucket.len());
        let records = bucket.as_ptr().cast::<MaybeUninit<T>>();
        copy_parallel(std::slice::from_raw_parts(records, bucket.len()), stage);
        std::slice::from_raw_parts(stage.as_ptr().cast::<T>(), bucket.len())
    }
}

/// `dst.copy_from_slice(src)`, chunk-parallel above [`CHUNK_GRAIN`].
fn copy_parallel<T: Copy + Send + Sync>(src: &[T], dst: &mut [T]) {
    for_each_chunk_mut(dst, CHUNK_GRAIN, |at, chunk| {
        chunk.copy_from_slice(&src[at..at + chunk.len()]);
    });
}

fn uninit_vec<T>(n: usize) -> Vec<MaybeUninit<T>> {
    let mut v = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit<T>` requires no initialization and the
    // capacity was just reserved.
    unsafe { v.set_len(n) };
    v
}

/// # Safety
///
/// Every element of `v` must have been initialized.
unsafe fn assume_init<T>(v: Vec<MaybeUninit<T>>) -> Vec<T> {
    let mut v = std::mem::ManuallyDrop::new(v);
    // SAFETY: `MaybeUninit<T>` and `T` share their layout, and the
    // caller initialized every element.
    unsafe { Vec::from_raw_parts(v.as_mut_ptr().cast::<T>(), v.len(), v.capacity()) }
}

/// Raw buffer pointer shared across workers.
struct Buf<T>(*mut T);

impl<T> Buf<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<T> Clone for Buf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Buf<T> {}

// SAFETY: all access paths operate on caller-proven disjoint ranges
// (see the `# Safety` contract of `partition_level` and the comments at
// each use), so sharing the raw pointer across workers cannot alias.
unsafe impl<T: Send> Send for Buf<T> {}
// SAFETY: same disjointness argument.
unsafe impl<T: Send> Sync for Buf<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_sort_by_key;

    fn check_sorted_u64(mut v: Vec<u64>, bits: u32) {
        let mut expected = v.clone();
        expected.sort();
        radix_sort_by_key(&mut v, bits, |&x| x);
        assert_eq!(v, expected);
    }

    #[test]
    fn digit_plan_spreads_bits_evenly() {
        assert_eq!(digit_plan(0), vec![1]);
        assert_eq!(digit_plan(11), vec![11]);
        assert_eq!(digit_plan(12), vec![6, 6]);
        assert_eq!(digit_plan(20), vec![10, 10]);
        assert_eq!(digit_plan(24), vec![8, 8, 8]);
        assert_eq!(digit_plan(64), vec![11, 11, 11, 11, 10, 10]);
        for bits in 1..=64 {
            let plan = digit_plan(bits);
            assert_eq!(plan.iter().sum::<u32>(), bits);
            assert!(plan.iter().all(|&b| (1..=MAX_DIGIT_BITS).contains(&b)));
            assert!(plan.iter().max().unwrap() - plan.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn empty_and_singleton() {
        check_sorted_u64(vec![], 8);
        check_sorted_u64(vec![7], 8);
    }

    #[test]
    fn small_input() {
        check_sorted_u64(vec![5, 3, 9, 1, 1, 0, 255], 8);
    }

    #[test]
    fn medium_single_digit() {
        let v: Vec<u64> = (0..100_000u64).map(|i| (i * 2_654_435_761) % 256).collect();
        check_sorted_u64(v, 8);
    }

    #[test]
    fn large_multi_digit() {
        let v: Vec<u64> = (0..500_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
            .collect();
        check_sorted_u64(v, 24);
    }

    #[test]
    fn full_64_bit_keys() {
        let v: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        check_sorted_u64(v, 64);
    }

    #[test]
    fn stability_preserved() {
        // Records carry their original index; equal keys must stay in
        // input order.
        let n = 300_000usize;
        let mut v: Vec<(u32, u32)> = (0..n)
            .map(|i| (((i as u32).wrapping_mul(2_654_435_761)) % 64, i as u32))
            .collect();
        radix_sort_by_key(&mut v, 6, |&(k, _)| k as u64);
        for w in v.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated: {:?} {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn all_equal_keys() {
        let mut v: Vec<(u64, usize)> = (0..200_000).map(|i| (42u64, i)).collect();
        radix_sort_by_key(&mut v, 16, |&(k, _)| k);
        for (i, &(k, idx)) in v.iter().enumerate() {
            assert_eq!(k, 42);
            assert_eq!(idx, i);
        }
    }

    #[test]
    fn already_sorted_and_reversed() {
        check_sorted_u64((0..300_000u64).collect(), 20);
        check_sorted_u64((0..300_000u64).rev().collect(), 20);
    }

    #[test]
    fn key_bits_clamped() {
        let mut v = vec![3u64, 1, 2];
        // Clamped to one bit: ordered by the low bit only, stably.
        radix_sort_by_key(&mut v, 0, |&x| x);
        assert_eq!(v, vec![2, 3, 1]);
    }

    #[test]
    fn partition_matches_count_sort() {
        // Two levels, a non-power-of-two key count, and enough records
        // for the chunk-parallel first level.
        let (n, num_keys) = (200_000usize, 70_001usize);
        let data: Vec<(u32, u32)> = (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) % num_keys as u32, i))
            .collect();
        let got = radix_partition_by_key(&data, num_keys, |&(k, _)| k as u64);
        let want = count_sort_by_key(&data, num_keys, |&(k, _)| k as u64);
        assert_eq!(got.sorted, want.sorted);
        assert_eq!(got.offsets, want.offsets);
    }

    #[test]
    fn partition_of_nothing() {
        let out = radix_partition_by_key(&Vec::<u32>::new(), 5, |&x| x as u64);
        assert!(out.sorted.is_empty());
        assert_eq!(out.offsets, vec![0; 6]);
        let out = radix_partition_by_key(&Vec::<u32>::new(), 0, |&x| x as u64);
        assert_eq!(out.offsets, vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_rejects_out_of_range_key() {
        let _ = radix_partition_by_key(&[1u32, 5, 2], 5, |&x| x as u64);
    }
}
