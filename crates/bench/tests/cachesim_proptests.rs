//! Cache-model invariants for arbitrary access streams.

use egraph_bench::llc::{
    AccessKind, CacheConfig, CacheHierarchy, HierarchyProbe, LlcProbe, MemProbe, SetAssocCache,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn misses_never_exceed_accesses(addrs in proptest::collection::vec(any::<u32>(), 0..5000)) {
        let mut c = SetAssocCache::new(CacheConfig::tiny(16 * 1024, 8));
        for &a in &addrs {
            c.access(a as u64);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert!(s.misses <= s.accesses);
    }

    #[test]
    fn immediate_repeat_always_hits(addrs in proptest::collection::vec(any::<u32>(), 1..2000)) {
        let mut c = SetAssocCache::new(CacheConfig::tiny(16 * 1024, 8));
        for &a in &addrs {
            c.access(a as u64);
            prop_assert!(c.access(a as u64), "immediate re-access of {a} missed");
        }
    }

    #[test]
    fn working_set_within_one_way_set_never_evicts(
        lines in proptest::collection::vec(0u64..4, 1..200),
    ) {
        // 4 distinct lines mapping anywhere in a 8-way cache: after
        // the first (cold) touch of each line, everything hits.
        let mut c = SetAssocCache::new(CacheConfig::tiny(64 * 1024, 8));
        let mut seen = std::collections::HashSet::new();
        for &l in &lines {
            let hit = c.access(l * 64);
            if seen.contains(&l) {
                prop_assert!(hit);
            }
            seen.insert(l);
        }
    }

    #[test]
    fn hierarchy_llc_traffic_is_a_subset(
        addrs in proptest::collection::vec(any::<u32>(), 0..3000),
    ) {
        let probe = HierarchyProbe::new(CacheHierarchy::new(
            CacheConfig::tiny(4 * 1024, 8),
            CacheConfig::tiny(32 * 1024, 16),
        ));
        for &a in &addrs {
            probe.touch(AccessKind::Edge, a as u64);
        }
        let llc = probe.report().total();
        prop_assert!(llc.accesses <= addrs.len() as u64);
        prop_assert!(llc.misses <= llc.accesses);
    }

    #[test]
    fn probe_report_totals_are_consistent(
        kinds in proptest::collection::vec(0u8..3, 0..2000),
    ) {
        let probe = LlcProbe::new(CacheConfig::tiny(8 * 1024, 4));
        for (i, &k) in kinds.iter().enumerate() {
            let kind = match k {
                0 => AccessKind::Edge,
                1 => AccessKind::SrcMeta,
                _ => AccessKind::DstMeta,
            };
            probe.touch(kind, (i as u64) * 64 % (1 << 20));
        }
        let r = probe.report();
        prop_assert_eq!(r.total().accesses, kinds.len() as u64);
        let per_kind_sum: u64 = [AccessKind::Edge, AccessKind::SrcMeta, AccessKind::DstMeta]
            .iter()
            .map(|&k| r.kind(k).accesses)
            .sum();
        prop_assert_eq!(per_kind_sum, kinds.len() as u64);
    }
}
