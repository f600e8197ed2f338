//! Integration of the NUMA measurement substrate: partitioning +
//! locality modeling. (The cache simulator is driven by replayed access
//! streams; its integration tests live with the replay, in
//! `egraph-bench`'s `trace` module.)

use egraph_bench::numa::{
    bfs_locality, pagerank_locality, partition_by_target, CostModel, DataPolicy, MemoryBoundness,
    Topology,
};
use everything_graph::core::prelude::*;
use everything_graph::graphgen;

fn test_graph() -> EdgeList<Edge> {
    graphgen::rmat(12, 16, 4)
}

#[test]
fn partitioning_preserves_the_graph() {
    let graph = test_graph();
    for nodes in [1usize, 2, 4, 8] {
        let partition = partition_by_target(&graph, nodes);
        assert_eq!(partition.num_edges(), graph.num_edges(), "{nodes} nodes");
        assert_eq!(partition.vertex_ranges.len(), nodes);
        // Edge multiset is preserved.
        let mut got: Vec<(u32, u32)> = partition
            .per_node_edges
            .iter()
            .flatten()
            .map(|e| (e.src, e.dst))
            .collect();
        let mut expected: Vec<(u32, u32)> = graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }
}

#[test]
fn numa_model_reproduces_the_papers_directions() {
    let graph = test_graph();
    let model_b = CostModel::new(Topology::machine_b());

    // PageRank (Fig 9b): NUMA-aware placement must model faster.
    let aware = pagerank_locality(&graph, DataPolicy::NumaAware, 4).modeled(
        &model_b,
        10.0,
        MemoryBoundness::PAGERANK,
    );
    let inter = pagerank_locality(&graph, DataPolicy::Interleaved, 4).modeled(
        &model_b,
        10.0,
        MemoryBoundness::PAGERANK,
    );
    assert!(
        aware.modeled_seconds < inter.modeled_seconds,
        "PR on B: aware {} vs inter {}",
        aware.modeled_seconds,
        inter.modeled_seconds
    );

    // The gain on machine B exceeds the gain on machine A ("only on
    // large machines").
    let model_a = CostModel::new(Topology::machine_a());
    let aware_a = pagerank_locality(&graph, DataPolicy::NumaAware, 2).modeled(
        &model_a,
        10.0,
        MemoryBoundness::PAGERANK,
    );
    let inter_a = pagerank_locality(&graph, DataPolicy::Interleaved, 2).modeled(
        &model_a,
        10.0,
        MemoryBoundness::PAGERANK,
    );
    let gain_b = inter.modeled_seconds / aware.modeled_seconds;
    let gain_a = inter_a.modeled_seconds / aware_a.modeled_seconds;
    assert!(gain_b > gain_a, "B gain {gain_b} vs A gain {gain_a}");
}

#[test]
fn road_bfs_contention_punishes_numa_awareness() {
    // Fig. 10's direction: on a high-diameter road-shaped graph the
    // NUMA-aware BFS models *slower* than interleaved.
    let roads = graphgen::road_like(64, 256);
    let model = CostModel::new(Topology::machine_b());
    let aware = bfs_locality(&roads, 0, DataPolicy::NumaAware, 4).modeled(
        &model,
        1.0,
        MemoryBoundness::TRAVERSAL,
    );
    let inter = bfs_locality(&roads, 0, DataPolicy::Interleaved, 4).modeled(
        &model,
        1.0,
        MemoryBoundness::TRAVERSAL,
    );
    assert!(
        aware.modeled_seconds > inter.modeled_seconds,
        "aware {} must exceed inter {}",
        aware.modeled_seconds,
        inter.modeled_seconds
    );
    assert!(aware.contention_factor > 1.2, "hotspot contention expected");
}
