//! Property tests: the sorting kernels must agree with the standard
//! library's sort — and the radix partition with count sort, record for
//! record and offset for offset — for arbitrary inputs, key widths, key
//! skews, key counts and pool widths.

use std::panic::{catch_unwind, AssertUnwindSafe};

use egraph_parallel::{with_pool, ThreadPool};
use egraph_sort::{count_sort_by_key, radix_partition_by_key, CountSorted};
use proptest::prelude::*;

/// One-, two- and three-level digit plans, powers of two and their
/// neighbours (so the last bucket of a level is shorter than its
/// digit), and a key count far above any record count.
const NUM_KEYS: [usize; 10] = [1, 2, 63, 64, 65, 2_047, 2_048, 2_049, 70_001, (1 << 22) + 3];

/// A record: its key and its input position (so order is observable).
type Rec = (u64, u32);

fn rec_key(r: &Rec) -> u64 {
    r.0
}

fn tagged(keys: impl IntoIterator<Item = u64>) -> Vec<Rec> {
    keys.into_iter().zip(0..).collect()
}

/// The grouping both kernels must produce, from neither of them: a
/// stable comparison sort and a counted offset table.
fn reference(data: &[Rec], num_keys: usize) -> CountSorted<Rec> {
    let mut sorted = data.to_vec();
    sorted.sort_by_key(rec_key);
    let mut offsets = vec![0u64; num_keys + 1];
    for r in data {
        offsets[r.0 as usize + 1] += 1;
    }
    for k in 0..num_keys {
        offsets[k + 1] += offsets[k];
    }
    CountSorted { sorted, offsets }
}

fn assert_same(got: &CountSorted<Rec>, want: &CountSorted<Rec>, what: &str) {
    assert!(got.sorted == want.sorted, "{what}: sorted differs");
    assert!(got.offsets == want.offsets, "{what}: offsets differ");
}

/// 90 % of the records in the first top-level bucket (long enough to be
/// re-partitioned chunk-parallel), the rest spread over every key.
fn skewed(n: usize, num_keys: usize) -> Vec<Rec> {
    tagged((0..n as u64).map(|i| {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        if i % 10 == 0 {
            h % num_keys as u64
        } else {
            h % num_keys.min(200) as u64
        }
    }))
}

#[test]
fn partition_is_the_same_at_every_pool_width_and_inside_a_region() {
    for num_keys in [64, 2_049, 70_001, (1 << 22) + 3] {
        let data = skewed(150_000, num_keys);
        let want = reference(&data, num_keys);
        for width in [1, 2, 4] {
            let pool = ThreadPool::new(width);
            with_pool(&pool, || {
                let what = format!("{num_keys} keys, width {width}");
                assert_same(
                    &radix_partition_by_key(&data, num_keys, rec_key),
                    &want,
                    &what,
                );
                assert_same(&count_sort_by_key(&data, num_keys, rec_key), &want, &what);
            });
            // From inside a region both kernels run serially on the
            // calling worker.
            pool.broadcast(&|worker| {
                if worker.index() == width - 1 {
                    let what = format!("{num_keys} keys, inside a region of {width}");
                    assert_same(
                        &radix_partition_by_key(&data, num_keys, rec_key),
                        &want,
                        &what,
                    );
                    assert_same(&count_sort_by_key(&data, num_keys, rec_key), &want, &what);
                }
            });
        }
    }
}

#[test]
fn out_of_range_key_panics_with_a_message() {
    // Only the last record of a multi-chunk input is out of range: the
    // histogram pass of level 1 (which precedes every scatter) finds it.
    let mut data = skewed(150_000, 1_000);
    data.push((1_000, 0));
    for width in [1, 4] {
        let pool = ThreadPool::new(width);
        let panic = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || radix_partition_by_key(&data, 1_000, rec_key))
        }))
        .expect_err("a key equal to num_keys must panic");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.contains("key 1000 out of range (num_keys = 1000)"),
            "width {width}: {message}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn radix_equals_std_stable_sort(
        data in proptest::collection::vec(any::<u32>(), 0..30_000),
        bits_over in 0u32..3,
    ) {
        // Tag every record with its index so stability is observable.
        let tagged: Vec<(u32, usize)> =
            data.iter().copied().zip(0..).collect();
        let max = data.iter().copied().max().unwrap_or(0) as u64;
        let bits = (64 - max.leading_zeros()).max(1) + bits_over;
        let mut got = tagged.clone();
        egraph_sort::radix_sort_by_key(&mut got, bits, |&(k, _)| k as u64);
        let mut expected = tagged;
        expected.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn radix_sorts_by_the_low_key_bits(
        data in proptest::collection::vec(any::<u64>(), 0..20_000),
        which in 0usize..5,
    ) {
        let bits = [1u32, 8, 9, 33, 64][which];
        let low = move |k: u64| if bits == 64 { k } else { k & ((1 << bits) - 1) };
        let mut got = tagged(data.iter().copied());
        egraph_sort::radix_sort_by_key(&mut got, bits, rec_key);
        let mut expected = tagged(data);
        expected.sort_by_key(|r| low(r.0));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn partition_equals_count_sort(
        raw in proptest::collection::vec(any::<u64>(), 0..20_000),
        which in 0usize..NUM_KEYS.len(),
        shape in 0u32..4,
    ) {
        let num_keys = NUM_KEYS[which] as u64;
        let data = tagged(raw.iter().map(|&r| match shape {
            // Uniform over every key.
            0 => r % num_keys,
            // Every key equal.
            1 => raw[0] % num_keys,
            // Every key in the last bucket of every level.
            2 => num_keys - 1 - r % num_keys.min(5),
            // Nine in ten records on a handful of adjacent keys.
            _ => if r % 10 == 0 { (r >> 8) % num_keys } else { r % num_keys.min(3) },
        }));
        let got = radix_partition_by_key(&data, num_keys as usize, rec_key);
        let want = count_sort_by_key(&data, num_keys as usize, rec_key);
        prop_assert!(got.sorted == want.sorted, "sorted differs ({} keys, shape {})", num_keys, shape);
        prop_assert!(got.offsets == want.offsets, "offsets differ ({} keys, shape {})", num_keys, shape);
    }

    #[test]
    fn radix_skewed_keys(
        data in proptest::collection::vec(0u64..16, 0..50_000),
    ) {
        let mut got = data.clone();
        egraph_sort::radix_sort_by_key(&mut got, 4, |&x| x);
        let mut expected = data;
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn count_sort_is_grouped_permutation(
        data in proptest::collection::vec(0u64..500, 0..30_000),
    ) {
        let tagged: Vec<(u64, usize)> = data.iter().copied().zip(0..).collect();
        let out = egraph_sort::count_sort_by_key(&tagged, 500, |&(k, _)| k);
        // Offsets match the histogram.
        for k in 0..500usize {
            let expected = data.iter().filter(|&&x| x == k as u64).count() as u64;
            prop_assert_eq!(out.offsets[k + 1] - out.offsets[k], expected);
        }
        // Each group holds only its key.
        for k in 0..500usize {
            for t in &out.sorted[out.offsets[k] as usize..out.offsets[k + 1] as usize] {
                prop_assert_eq!(t.0, k as u64);
            }
        }
        // Output is a permutation of the input.
        let mut tags: Vec<usize> = out.sorted.iter().map(|t| t.1).collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, (0..data.len()).collect::<Vec<_>>());
    }

    #[test]
    fn radix_and_count_agree_on_grouping(
        data in proptest::collection::vec(0u64..64, 0..20_000),
    ) {
        let mut radixed = data.clone();
        egraph_sort::radix_sort_by_key(&mut radixed, 6, |&x| x);
        let counted = egraph_sort::count_sort_by_key(&data, 64, |&x| x);
        prop_assert_eq!(radixed, counted.sorted);
    }

    #[test]
    fn histogram_matches_filter_count(
        data in proptest::collection::vec(0u64..100, 0..20_000),
    ) {
        let h = egraph_sort::key_histogram(&data, 100, |&x| x);
        for k in 0..100u64 {
            prop_assert_eq!(h[k as usize], data.iter().filter(|&&x| x == k).count() as u64);
        }
    }
}
