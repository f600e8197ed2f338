//! Integration: real-world text dataset formats (SNAP, DIMACS) flow
//! through the whole pipeline and agree with the binary path.

use everything_graph::core::algo::sssp;
use everything_graph::core::prelude::*;
use everything_graph::graphgen;
use everything_graph::storage::{read_dimacs, read_snap, write_edge_list, write_snap};

/// Runs the variant `spec` (`algo/layout/direction`) on `graph` from
/// vertex 0.
fn run<E: EdgeRecord>(spec: &str, graph: &PreparedGraph<'_, E>) -> VariantOutput {
    let id: VariantId = spec.parse().unwrap();
    run_variant(&id, &ExecCtx::new(None), graph, &RunParams::default())
        .unwrap()
        .output
}

#[test]
fn snap_text_agrees_with_binary_pipeline() {
    let graph = graphgen::rmat(10, 8, 77);

    // Route A: binary.
    let mut bin = Vec::new();
    write_edge_list(&mut bin, &graph).unwrap();
    let from_bin: EdgeList<Edge> = everything_graph::storage::read_edge_list(&bin[..]).unwrap();

    // Route B: SNAP text (pin the vertex count — text loses trailing
    // isolated vertices).
    let mut text = Vec::new();
    write_snap(&mut text, &graph).unwrap();
    let from_text: EdgeList<Edge> = read_snap(&text[..], Some(graph.num_vertices())).unwrap();

    assert_eq!(from_bin.edges(), from_text.edges());
    let a = PreparedGraph::new(&from_bin).strategy(Strategy::RadixSort);
    let b = PreparedGraph::new(&from_text).strategy(Strategy::CountSort);
    assert_eq!(
        run("bfs/adj/push", &a).as_bfs().unwrap().level,
        run("bfs/adj/push", &b).as_bfs().unwrap().level,
        "both routes must compute identical BFS"
    );
}

#[test]
fn dimacs_route_runs_sssp() {
    // A small weighted graph in DIMACS form: a 4-cycle plus a chord.
    let gr = "c 4-cycle with chord\n\
              p sp 4 5\n\
              a 1 2 1\n\
              a 2 3 1\n\
              a 3 4 1\n\
              a 4 1 1\n\
              a 1 3 10\n";
    let graph = read_dimacs(gr.as_bytes()).unwrap();
    assert_eq!(graph.num_vertices(), 4);
    let out = run("sssp/adj/push", &PreparedGraph::new(&graph));
    let result = out.as_sssp().unwrap();
    // 0 -> 2 via the cycle (2.0) beats the chord (10.0).
    assert_eq!(result.dist[2], 2.0);
    let reference = sssp::reference(&graph, 0);
    for (d, r) in result.dist.iter().zip(&reference) {
        assert_eq!(d, r);
    }
}

#[test]
fn weighted_snap_roundtrip_preserves_weights() {
    let graph = EdgeList::new(
        5,
        vec![
            WEdge::new(0, 1, 0.5),
            WEdge::new(1, 2, 1.25),
            WEdge::new(4, 0, 100.0),
        ],
    )
    .unwrap();
    let mut text = Vec::new();
    write_snap(&mut text, &graph).unwrap();
    let back: EdgeList<WEdge> = read_snap(&text[..], Some(5)).unwrap();
    assert_eq!(back, graph);
}

#[test]
fn small_world_through_the_pipeline() {
    let graph = graphgen::small_world(1000, 3, 0.05, 3);
    let out = run("bfs/adj/push-pull", &PreparedGraph::new(&graph));
    let result = out.as_bfs().unwrap();
    // Small world: everything reachable, few levels.
    assert_eq!(result.reachable_count(), 1000);
    assert!(
        result.iterations.len() < 40,
        "{} levels",
        result.iterations.len()
    );
}
