//! Property tests for the parallel runtime: every combinator must agree
//! with its obvious sequential counterpart for arbitrary inputs, grain
//! sizes and pool shapes.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_for_visits_each_index_once(
        len in 0usize..20_000,
        grain in 1usize..5_000,
    ) {
        let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        egraph_parallel::parallel_for(0..len, grain, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn reduce_equals_sequential_sum(
        data in proptest::collection::vec(0u64..1_000_000, 0..20_000),
        grain in 1usize..4_096,
    ) {
        let expected: u64 = data.iter().sum();
        let got = egraph_parallel::parallel_reduce(
            0..data.len(),
            grain,
            || 0u64,
            |acc, r| acc + data[r].iter().sum::<u64>(),
            |a, b| a + b,
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn exclusive_scan_matches_reference(
        data in proptest::collection::vec(0u64..1_000, 0..100_000),
    ) {
        let mut got = data.clone();
        let total = egraph_parallel::exclusive_prefix_sum(&mut got);
        let mut run = 0u64;
        for (i, &x) in data.iter().enumerate() {
            prop_assert_eq!(got[i], run);
            run += x;
        }
        prop_assert_eq!(total, run);
    }

    #[test]
    fn parallel_init_equals_map(
        n in 0usize..30_000,
        grain in 1usize..4_096,
        seed in any::<u64>(),
    ) {
        let f = |i: usize| (i as u64).wrapping_mul(seed | 1);
        let got = egraph_parallel::ops::parallel_init(n, grain, f);
        let expected: Vec<u64> = (0..n).map(f).collect();
        prop_assert_eq!(got, expected);
    }
}
