//! Cross-crate property tests: for arbitrary random graphs, every
//! layout/strategy/flow combination must agree, and the storage format
//! must roundtrip exactly.

use everything_graph::core::algo::{bfs, pagerank, sssp, wcc};
use everything_graph::core::exec::ExecCtx;
use everything_graph::core::layout::{EdgeDirection, VertexLayout};
use everything_graph::core::preprocess::{CsrBuilder, GridBuilder, Strategy as Build};
use everything_graph::core::types::{Edge, EdgeList, EdgeRecord, WEdge};
use everything_graph::core::variant::{run_variant, PreparedGraph, RunParams, VariantOutput};
use everything_graph::storage::{read_edge_list, write_edge_list};
use proptest::prelude::*;

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

/// An arbitrary small multigraph (self-loops and duplicates allowed).
fn arb_graph() -> impl Strategy<Value = EdgeList<Edge>> {
    (2usize..120).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv as u32, 0..nv as u32), 0..600).prop_map(move |pairs| {
            EdgeList::new(
                nv,
                pairs.into_iter().map(|(s, d)| Edge::new(s, d)).collect(),
            )
            .expect("endpoints are in range by construction")
        })
    })
}

fn arb_weighted() -> impl Strategy<Value = EdgeList<WEdge>> {
    (2usize..80).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv as u32, 0..nv as u32, 1u32..100), 0..400).prop_map(
            move |triples| {
                EdgeList::new(
                    nv,
                    triples
                        .into_iter()
                        .map(|(s, d, w)| WEdge::new(s, d, w as f32 / 10.0))
                        .collect(),
                )
                .expect("endpoints are in range by construction")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn storage_roundtrip_is_identity(graph in arb_graph()) {
        let mut file = Vec::new();
        write_edge_list(&mut file, &graph).unwrap();
        let back: EdgeList<Edge> = read_edge_list(&file[..]).unwrap();
        prop_assert_eq!(back, graph);
    }

    #[test]
    fn all_strategies_build_equivalent_adjacency(graph in arb_graph()) {
        let reference = CsrBuilder::new(Build::RadixSort, EdgeDirection::Both).build(&graph);
        for strategy in [Build::CountSort, Build::Dynamic] {
            let other = CsrBuilder::new(strategy, EdgeDirection::Both).build(&graph);
            for v in 0..graph.num_vertices() as u32 {
                let mut a: Vec<u32> =
                    reference.out().neighbors(v).iter().map(|e| e.dst).collect();
                let mut b: Vec<u32> = other.out().neighbors(v).iter().map(|e| e.dst).collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "out-neighbors of {} with {:?}", v, strategy);
                let mut a: Vec<u32> =
                    reference.incoming().neighbors(v).iter().map(|e| e.src).collect();
                let mut b: Vec<u32> =
                    other.incoming().neighbors(v).iter().map(|e| e.src).collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "in-neighbors of {} with {:?}", v, strategy);
            }
        }
    }

    #[test]
    fn grid_is_a_partition_of_the_edge_list(graph in arb_graph(), side in 1usize..9) {
        let grid = GridBuilder::new(Build::RadixSort).side(side).build(&graph);
        prop_assert_eq!(grid.num_edges(), graph.num_edges());
        // Every edge sits in exactly the cell its endpoints map to, and
        // the multiset of edges matches the input.
        let mut from_grid = Vec::new();
        for row in 0..side {
            for col in 0..side {
                for e in grid.cell(row, col) {
                    prop_assert_eq!(grid.cell_of(e.src, e.dst), (row, col));
                    from_grid.push((e.src, e.dst));
                }
            }
        }
        let mut expected: Vec<(u32, u32)> =
            graph.edges().iter().map(|e| (e.src, e.dst)).collect();
        from_grid.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(from_grid, expected);
    }

    #[test]
    fn bfs_variants_agree(graph in arb_graph(), root_ix in any::<prop::sample::Index>()) {
        let root = root_ix.index(graph.num_vertices()) as u32;
        let adj = CsrBuilder::new(Build::RadixSort, EdgeDirection::Out).build(&graph);
        // A side past the vertex count only adds empty rows and columns.
        let prepared = PreparedGraph::new(&graph).side(4.min(graph.num_vertices()));
        let expected = bfs::reference(adj.out(), root);
        let params = RunParams { root, ..RunParams::default() };
        for spec in ["bfs/adj/push", "bfs/adj/pull", "bfs/adj/push-pull", "bfs/edge/push", "bfs/grid/push"] {
            let out = run(spec, &prepared, &params);
            prop_assert_eq!(&out.as_bfs().unwrap().level, &expected, "{}", spec);
        }
    }

    #[test]
    fn wcc_equals_union_find(graph in arb_graph()) {
        let expected = wcc::reference(&graph);
        let out = run("wcc/edge/push", &PreparedGraph::new(&graph), &RunParams::default());
        prop_assert_eq!(&out.as_wcc().unwrap().label, &expected);
        let prepared = PreparedGraph::new(&graph).strategy(Build::CountSort);
        let out = run("wcc/adj/push", &prepared, &RunParams::default());
        prop_assert_eq!(&out.as_wcc().unwrap().label, &expected);
    }

    #[test]
    fn sssp_equals_dijkstra(graph in arb_weighted(), root_ix in any::<prop::sample::Index>()) {
        let root = root_ix.index(graph.num_vertices()) as u32;
        let prepared = PreparedGraph::new(&graph);
        let expected = sssp::reference(&graph, root);
        let params = RunParams { root, ..RunParams::default() };
        for (name, spec) in [("push", "sssp/adj/push"), ("edge", "sssp/edge/push")] {
            let out = run(spec, &prepared, &params);
            let dist = &out.as_sssp().unwrap().dist;
            for v in 0..dist.len() {
                if expected[v].is_finite() {
                    prop_assert!(
                        (dist[v] - expected[v]).abs() < 1e-3 * (1.0 + expected[v]),
                        "{}: dist[{}] = {} vs {}", name, v, dist[v], expected[v]
                    );
                } else {
                    prop_assert!(dist[v].is_infinite(), "{}: dist[{}]", name, v);
                }
            }
        }
    }

    #[test]
    fn pagerank_mass_is_bounded_and_variants_agree(graph in arb_graph()) {
        let cfg = pagerank::PagerankConfig { iterations: 3, ..Default::default() };
        let prepared = PreparedGraph::new(&graph);
        let params = RunParams { pagerank: cfg, ..RunParams::default() };
        let pull = run("pagerank/adj/pull", &prepared, &params);
        let pull = pull.as_pagerank().unwrap();
        let push = run("pagerank/adj/push", &prepared, &params);
        let push = push.as_pagerank().unwrap();
        let total: f32 = pull.ranks.iter().sum();
        prop_assert!(total <= 1.0 + 1e-3, "rank mass {}", total);
        for v in 0..pull.ranks.len() {
            prop_assert!(
                (pull.ranks[v] - push.ranks[v]).abs() < 1e-4 + 1e-3 * pull.ranks[v].abs(),
                "rank[{}]: pull {} vs push {}", v, pull.ranks[v], push.ranks[v]
            );
        }
    }
}
