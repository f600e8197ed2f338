//! NUMA model invariants for arbitrary degree distributions and
//! traffic matrices.

use egraph_bench::numa::{
    edge_balanced_ranges, CostModel, LocalityStats, MemoryBoundness, Placement, Topology,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn edge_balanced_ranges_cover_and_order(
        degrees in proptest::collection::vec(0u64..1000, 0..500),
        parts in 1usize..9,
    ) {
        let ranges = edge_balanced_ranges(&degrees, parts);
        prop_assert_eq!(ranges.len(), parts);
        prop_assert_eq!(ranges.last().map(|r| r.end), Some(degrees.len()));
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor);
            prop_assert!(r.end >= r.start);
            cursor = r.end;
        }
    }

    #[test]
    fn edge_balance_quality(
        degrees in proptest::collection::vec(1u64..50, 16..400),
        parts in 2usize..5,
    ) {
        // With bounded degrees, every part's edge share is within one
        // max-degree of the ideal share.
        let ranges = edge_balanced_ranges(&degrees, parts);
        let total: u64 = degrees.iter().sum();
        let ideal = total as f64 / parts as f64;
        let max_degree = *degrees.iter().max().unwrap() as f64;
        for r in &ranges {
            let sum: u64 = degrees[r.clone()].iter().sum();
            prop_assert!(
                (sum as f64 - ideal).abs() <= ideal + max_degree,
                "part {:?} holds {} of ideal {}", r, sum, ideal
            );
        }
    }

    #[test]
    fn placement_owner_is_total(
        stripe in 1usize..5000,
        nodes in 1usize..9,
        index in any::<u32>(),
    ) {
        let p = Placement::Interleaved { stripe, num_nodes: nodes };
        prop_assert!(p.owner_of(index as usize) < nodes);
    }

    #[test]
    fn cost_model_is_monotone_in_each_factor(
        rf_lo in 0.0f64..1.0,
        rf_extra in 0.0f64..0.5,
        peak_lo in 0.25f64..1.0,
        peak_extra in 0.0f64..0.5,
    ) {
        // With the other factor fixed, more remote traffic and more
        // hotspot concentration must each model no faster. (Jointly
        // they can trade off: spreading traffic to remote nodes may
        // relieve a controller hotspot.)
        let model = CostModel::new(Topology::machine_b());
        let rf_hi = (rf_lo + rf_extra).min(1.0);
        let peak_hi = (peak_lo + peak_extra).min(1.0);
        let base = model.model_parts(1.0, MemoryBoundness::PAGERANK, rf_lo, peak_lo);
        let more_remote = model.model_parts(1.0, MemoryBoundness::PAGERANK, rf_hi, peak_lo);
        let more_hot = model.model_parts(1.0, MemoryBoundness::PAGERANK, rf_lo, peak_hi);
        prop_assert!(more_remote.modeled_seconds >= base.modeled_seconds - 1e-12);
        prop_assert!(more_hot.modeled_seconds >= base.modeled_seconds - 1e-12);
    }

    #[test]
    fn slowdown_is_at_least_one_for_nonnegative_models(
        traffic in proptest::collection::vec((0usize..4, 0usize..4, 1u64..1000), 1..40),
    ) {
        let stats = LocalityStats::new(4);
        for &(f, t, c) in &traffic {
            stats.record(f, t, c);
        }
        let model = CostModel::new(Topology::machine_b());
        let modeled = model.model_parts(
            1.0,
            MemoryBoundness::TRAVERSAL,
            stats.remote_fraction(),
            stats.peak_target_share(),
        );
        prop_assert!(modeled.modeled_seconds >= 1.0 - 1e-12);
    }
}
