//! Edge-case and failure-injection tests for the core crate:
//! degenerate graphs (empty, singleton, self-loops, extreme skew),
//! boundary layouts (grid side 1, huge sides), and pathological
//! algorithm inputs.

use egraph_core::exec::ExecCtx;
use egraph_core::layout::{EdgeDirection, VertexLayout};
use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};
use egraph_core::types::{Edge, EdgeList, EdgeRecord, VertexId, WEdge, INVALID_VERTEX};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantOutput};

fn build_all(graph: &EdgeList<Edge>) -> egraph_core::layout::AdjacencyList<Edge> {
    CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(graph)
}

/// Runs the variant `spec` (`algo/layout/direction`) on `graph`.
fn run<E: EdgeRecord>(
    spec: &str,
    graph: &PreparedGraph<'_, E>,
    params: &RunParams,
) -> VariantOutput {
    let id = spec.parse().unwrap();
    run_variant(&id, &ExecCtx::new(None), graph, params)
        .unwrap()
        .output
}

/// `params` with traversal root `root`.
fn from(root: VertexId) -> RunParams<'static> {
    RunParams {
        root,
        ..RunParams::default()
    }
}

#[test]
fn single_vertex_no_edges() {
    let graph: EdgeList<Edge> = EdgeList::new(1, vec![]).unwrap();
    let prepared = PreparedGraph::new(&graph);
    let out = run("bfs/adj/push", &prepared, &from(0));
    let r = out.as_bfs().unwrap();
    assert_eq!(r.reachable_count(), 1);
    assert_eq!(r.parent, vec![0]);

    let out = run("pagerank/adj/pull", &prepared, &RunParams::default());
    let pr = out.as_pagerank().unwrap();
    assert_eq!(pr.ranks.len(), 1);
    assert!(pr.ranks[0] > 0.0);
}

#[test]
fn self_loops_only() {
    let graph = EdgeList::new(3, (0..3).map(|v| Edge::new(v, v)).collect()).unwrap();
    let prepared = PreparedGraph::new(&graph);
    for root in 0..3 {
        let out = run("bfs/adj/push", &prepared, &from(root));
        let r = out.as_bfs().unwrap();
        assert_eq!(r.reachable_count(), 1, "self-loops reach nothing new");
    }
    let out = run("wcc/edge/push", &prepared, &RunParams::default());
    assert_eq!(out.as_wcc().unwrap().component_count(), 3);
}

#[test]
fn star_in_and_out() {
    // Extreme out-skew: vertex 0 points at everyone.
    let n = 10_000u32;
    let out_star = EdgeList::new(n as usize, (1..n).map(|v| Edge::new(0, v)).collect()).unwrap();
    let out = run("bfs/adj/push", &PreparedGraph::new(&out_star), &from(0));
    let r = out.as_bfs().unwrap();
    assert_eq!(r.reachable_count(), n as usize);
    assert!(r.level[1..].iter().all(|&l| l == 1));

    // Extreme in-skew: everyone points at vertex 0.
    let in_star = EdgeList::new(n as usize, (1..n).map(|v| Edge::new(v, 0)).collect()).unwrap();
    let prepared = PreparedGraph::new(&in_star);
    let out = run("bfs/adj/push", &prepared, &from(5));
    let r = out.as_bfs().unwrap();
    assert_eq!(r.reachable_count(), 2);
    assert_eq!(r.level[0], 1);

    let out = run("pagerank/adj/pull", &prepared, &RunParams::default());
    let top = out.as_pagerank().unwrap().top_k(1);
    assert_eq!(top, vec![0], "the sink hub must rank first");
}

#[test]
fn grid_side_one_is_a_single_cell() {
    let graph = EdgeList::new(100, (0..99).map(|v| Edge::new(v, v + 1)).collect()).unwrap();
    let grid = GridBuilder::new(Strategy::RadixSort).side(1).build(&graph);
    assert_eq!(grid.cell(0, 0).len(), 99);
    let prepared = PreparedGraph::new(&graph).side(1);
    let out = run("bfs/grid/push", &prepared, &from(0));
    assert_eq!(out.as_bfs().unwrap().reachable_count(), 100);
}

#[test]
fn bfs_from_isolated_vertex() {
    let graph = EdgeList::new(5, vec![Edge::new(1, 2), Edge::new(2, 3)]).unwrap();
    let prepared = PreparedGraph::new(&graph);
    for spec in ["bfs/adj/push", "bfs/adj/pull", "bfs/adj/push-pull"] {
        let out = run(spec, &prepared, &from(0));
        let r = out.as_bfs().unwrap();
        assert_eq!(r.reachable_count(), 1);
        assert_eq!(r.parent[0], 0);
        assert!(r.parent[1..].iter().all(|&p| p == INVALID_VERTEX));
    }
}

#[test]
fn sssp_with_zero_weight_edges() {
    let graph = EdgeList::new(3, vec![WEdge::new(0, 1, 0.0), WEdge::new(1, 2, 0.0)]).unwrap();
    let out = run("sssp/adj/push", &PreparedGraph::new(&graph), &from(0));
    assert_eq!(out.as_sssp().unwrap().dist, vec![0.0, 0.0, 0.0]);
}

#[test]
fn sssp_parallel_edges_take_minimum() {
    let graph = EdgeList::new(
        2,
        vec![
            WEdge::new(0, 1, 9.0),
            WEdge::new(0, 1, 2.0),
            WEdge::new(0, 1, 5.0),
        ],
    )
    .unwrap();
    let prepared = PreparedGraph::new(&graph).strategy(Strategy::Dynamic);
    let out = run("sssp/adj/push", &prepared, &from(0));
    assert_eq!(out.as_sssp().unwrap().dist[1], 2.0);
}

#[test]
fn spmv_with_negative_weights() {
    let graph = EdgeList::new(2, vec![WEdge::new(0, 1, -3.0), WEdge::new(1, 0, 2.0)]).unwrap();
    let params = RunParams {
        x: Some(&[1.0, 10.0]),
        ..RunParams::default()
    };
    let out = run("spmv/edge/push", &PreparedGraph::new(&graph), &params);
    assert_eq!(out.as_spmv().unwrap().y, vec![20.0, -3.0]);
}

#[test]
fn pagerank_on_cycle_is_uniform() {
    let n = 64u32;
    let graph = EdgeList::new(
        n as usize,
        (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect(),
    )
    .unwrap();
    assert!(graph.out_degrees().iter().all(|&d| d == 1));
    let out = run(
        "pagerank/adj/pull",
        &PreparedGraph::new(&graph),
        &RunParams::default(),
    );
    let pr = out.as_pagerank().unwrap();
    let expected = 1.0 / n as f32;
    for (v, &r) in pr.ranks.iter().enumerate() {
        assert!((r - expected).abs() < 1e-5, "rank[{v}] = {r}");
    }
}

#[test]
fn wcc_fully_connected_single_component() {
    let n = 50u32;
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                edges.push(Edge::new(a, b));
            }
        }
    }
    let graph = EdgeList::new(n as usize, edges).unwrap();
    let out = run(
        "wcc/edge/push",
        &PreparedGraph::new(&graph),
        &RunParams::default(),
    );
    assert_eq!(out.as_wcc().unwrap().component_count(), 1);
}

#[test]
fn duplicate_heavy_multigraph() {
    // 10k copies of the same edge: layouts and algorithms must cope.
    let graph = EdgeList::new(2, vec![Edge::new(0, 1); 10_000]).unwrap();
    let adj = build_all(&graph);
    assert_eq!(adj.out().degree(0), 10_000);
    let out = run("bfs/adj/push", &PreparedGraph::new(&graph), &from(0));
    assert_eq!(out.as_bfs().unwrap().reachable_count(), 2);
    let grid = GridBuilder::new(Strategy::RadixSort).side(2).build(&graph);
    assert_eq!(grid.num_edges(), 10_000);
}

#[test]
fn ids_at_the_top_of_the_range() {
    // Vertex ids close to the declared bound.
    let nv = 1_000_000usize;
    let graph = EdgeList::new(
        nv,
        vec![
            Edge::new(0, (nv - 1) as u32),
            Edge::new((nv - 1) as u32, (nv - 2) as u32),
        ],
    )
    .unwrap();
    let out = run("bfs/adj/push", &PreparedGraph::new(&graph), &from(0));
    let r = out.as_bfs().unwrap();
    assert_eq!(r.reachable_count(), 3);
    assert_eq!(r.level[nv - 2], 2);
}

#[test]
fn validation_rejects_edges_beyond_bound() {
    assert!(EdgeList::new(10, vec![Edge::new(0, 10)]).is_err());
    assert!(EdgeList::new(0, vec![Edge::new(0, 0)]).is_err());
}
