//! The §9 decision roadmap, as an executable API.
//!
//! "The first step consists of choosing an appropriate data layout
//! […] Second, if the machine is a large NUMA machine and the algorithm
//! execution time is predicted to be large, then partitioning the graph
//! to be NUMA-aware is beneficial. Third, if the data layout and
//! computation approach chosen during the first step allow for
//! execution without locking […] it is always beneficial to remove
//! locks. Finally, when pre-processing cannot be avoided […] it should
//! be optimized by using appropriate sorting techniques."
//!
//! [`recommend`] answers the first, third and fourth steps with a
//! [`VariantId`] that [`run_variant`](crate::variant::run_variant)
//! runs. The second step has nothing to decide on a one-node host; its
//! model lives with the Fig. 9/10 experiments in `egraph-bench`.

use crate::variant::{sync_matters, Algo, Direction, Layout, VariantId};

/// The roadmap's output.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The combination to run, in the variant table's own terms.
    pub variant: VariantId,
    /// Human-readable reasoning, one line per decision.
    pub rationale: Vec<String>,
}

/// Average degree at and above which the grid's cache reuse wins for
/// full-graph algorithms. Every graph this repo generates falls clearly
/// on one side: road lattices sit near 4 (US-Road 2.4), RMAT and
/// Twitter-like at 16 and 24.
const GRID_DEGREE_THRESHOLD: f64 = 8.0;

/// Applies the §9 roadmap to `algo` on a graph of average out-degree
/// `avg_degree` (edges / vertices).
pub fn recommend(algo: Algo, avg_degree: f64) -> Recommendation {
    use Direction::{Pull, Push};
    use Layout::{Adjacency, EdgeList, Grid};
    // Step 1: data layout and direction.
    let (layout, direction, why) = match algo {
        Algo::Spmv => (
            EdgeList,
            Push,
            "single-pass algorithm: the edge array avoids all pre-processing (SpMV rule)".into(),
        ),
        Algo::Wcc => (
            EdgeList,
            Push,
            "one union-find pass: no layout earns its build back, the adjacency list ends \
             1.7x (road) and 4.4x (RMAT) behind the edge array end to end \
             (EXPERIMENTS.md, 'The Table 6 reading this changes')"
                .into(),
        ),
        Algo::Bfs | Algo::Sssp => (
            Adjacency,
            Push,
            "small active subset per step: adjacency list in push mode skips inactive vertices"
                .into(),
        ),
        Algo::Pagerank if avg_degree >= GRID_DEGREE_THRESHOLD => (
            Grid,
            Pull,
            format!(
                "full-graph iterations on a high-degree graph (avg {avg_degree:.1}): \
                 the grid improves cache reuse"
            ),
        ),
        Algo::Pagerank => (
            EdgeList,
            Push,
            format!(
                "full-graph iterations on a low-degree graph (avg {avg_degree:.1}): grid cells \
                 too sparse to amortize, the edge array wins (US-Road PageRank rule)"
            ),
        ),
    };
    let variant = VariantId::new(algo, layout, direction);
    let mut rationale = vec![why];

    // Step 3: lock removal, read from the variant table.
    rationale.push(if sync_matters(&variant) {
        "push writes to shared targets: the default `--sync atomics`, not locks".into()
    } else {
        "the combination runs without locks: always beneficial".into()
    });

    // Step 4: pre-processing technique.
    if layout != EdgeList {
        rationale.push(
            "the layout must be built: radix sort, the default, is fastest for in-memory input \
             (Table 2)"
                .into(),
        );
    }

    Recommendation { variant, rationale }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(algo: Algo, avg_degree: f64) -> String {
        recommend(algo, avg_degree).variant.to_string()
    }

    #[test]
    fn spmv_gets_edge_array() {
        assert_eq!(pick(Algo::Spmv, 16.0), "spmv/edge/push");
    }

    #[test]
    fn bfs_gets_adjacency_push() {
        assert_eq!(pick(Algo::Bfs, 16.0), "bfs/adj/push");
        assert_eq!(pick(Algo::Sssp, 2.4), "sssp/adj/push");
    }

    #[test]
    fn pagerank_power_law_gets_grid_lock_free() {
        let r = recommend(Algo::Pagerank, 16.0);
        assert_eq!(r.variant.to_string(), "pagerank/grid/pull");
        assert!(!sync_matters(&r.variant));
    }

    #[test]
    fn pagerank_on_road_gets_edge_array() {
        assert_eq!(
            pick(Algo::Pagerank, 2.4),
            "pagerank/edge/push",
            "Table 5 US-Road rule"
        );
    }

    #[test]
    fn rationale_is_populated() {
        let r = recommend(Algo::Bfs, 16.0);
        assert!(!r.rationale.is_empty());
    }
}
