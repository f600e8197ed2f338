//! End-to-end integration: generate → store → load (throttled) →
//! pre-process (every strategy) → execute (every algorithm) → validate
//! against serial references. This is the full pipeline a user of the
//! library runs, crossing every crate of the workspace.

use everything_graph::core::algo::{als, bfs, pagerank, spmv, sssp, wcc};
use everything_graph::core::prelude::*;
use everything_graph::graphgen;
use everything_graph::storage::{read_edge_list, write_edge_list, ThrottledReader};

fn rmat_graph() -> EdgeList<Edge> {
    graphgen::rmat(12, 16, 99)
}

#[test]
fn store_load_preprocess_traverse() {
    let graph = rmat_graph();
    // Store into the binary format.
    let mut file = Vec::new();
    write_edge_list(&mut file, &graph).expect("write");
    // Load it back through a (fast) throttled reader.
    let loaded: EdgeList<Edge> =
        read_edge_list(ThrottledReader::new(&file[..], 1e9)).expect("read");
    assert_eq!(loaded, graph);

    // Pre-process with each strategy and verify BFS agrees on all.
    let root = 0u32;
    let mut baselines = Vec::new();
    for strategy in Strategy::ALL {
        let adj = CsrBuilder::new(strategy, EdgeDirection::Both).build(&loaded);
        let result = bfs::push(&adj, root);
        bfs::validate(adj.out(), root, &result);
        baselines.push(result.level);
    }
    assert_eq!(baselines[0], baselines[1]);
    assert_eq!(baselines[1], baselines[2]);
}

#[test]
fn every_bfs_variant_agrees_after_storage_roundtrip() {
    let graph = rmat_graph();
    let mut file = Vec::new();
    write_edge_list(&mut file, &graph).expect("write");
    let graph: EdgeList<Edge> = read_edge_list(&file[..]).expect("read");

    let root = 0u32;
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let grid = GridBuilder::new(Strategy::CountSort).side(8).build(&graph);
    let expected = bfs::reference(adj.out(), root);

    assert_eq!(bfs::push(&adj, root).level, expected, "push");
    assert_eq!(bfs::push_locked(&adj, root).level, expected, "push_locked");
    assert_eq!(bfs::pull(&adj, root).level, expected, "pull");
    assert_eq!(bfs::push_pull(&adj, root).level, expected, "push_pull");
    assert_eq!(bfs::edge_centric(&graph, root).level, expected, "edge");
    assert_eq!(bfs::grid(&grid, root).level, expected, "grid");
}

#[test]
fn pagerank_all_layouts_agree() {
    let graph = rmat_graph();
    let degrees: Vec<u32> = graph.out_degrees().iter().map(|&d| d as u32).collect();
    let cfg = pagerank::PagerankConfig {
        iterations: 4,
        ..Default::default()
    };
    let expected = pagerank::reference(&graph, &degrees, cfg);

    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&graph);
    let grid = GridBuilder::new(Strategy::RadixSort).side(8).build(&graph);

    let variants = [
        ("pull", pagerank::pull(adj.incoming(), &degrees, cfg).ranks),
        (
            "push-locks",
            pagerank::push(adj.out(), &degrees, cfg, SyncMode::Locks).ranks,
        ),
        (
            "edge",
            pagerank::edge_centric(&graph, &degrees, cfg, SyncMode::Atomics).ranks,
        ),
        (
            "grid-cols",
            pagerank::grid_push(&grid, &degrees, cfg, SyncMode::Atomics).ranks,
        ),
        ("grid-pull", pagerank::grid_pull(&grid, &degrees, cfg).ranks),
    ];
    for (name, ranks) in variants {
        for v in 0..expected.len() {
            assert!(
                (ranks[v] - expected[v]).abs() < 1e-3 * (1.0 + expected[v].abs()),
                "{name}: rank[{v}] = {} vs {}",
                ranks[v],
                expected[v]
            );
        }
    }
}

#[test]
fn weighted_pipeline_sssp_and_spmv() {
    let graph = rmat_graph();
    let weighted: EdgeList<WEdge> =
        graph.map_records(|e| WEdge::new(e.src, e.dst, 0.5 + ((e.src ^ e.dst) % 8) as f32));
    // Roundtrip through storage (weighted records).
    let mut file = Vec::new();
    write_edge_list(&mut file, &weighted).expect("write");
    let weighted: EdgeList<WEdge> = read_edge_list(&file[..]).expect("read");

    let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both).build(&weighted);
    let dist = sssp::push(&adj, 0).dist;
    let expected = sssp::reference(&weighted, 0);
    for v in 0..dist.len() {
        if expected[v].is_finite() {
            assert!((dist[v] - expected[v]).abs() < 1e-3, "dist[{v}]");
        } else {
            assert!(dist[v].is_infinite());
        }
    }

    let x: Vec<f32> = (0..weighted.num_vertices())
        .map(|i| (i % 5) as f32)
        .collect();
    let y_ref = spmv::reference(&weighted, &x);
    for (name, y) in [
        ("edge", spmv::edge_centric(&weighted, &x).y),
        ("push", spmv::push(adj.out(), &x).y),
        ("pull", spmv::pull(adj.incoming(), &x).y),
    ] {
        for v in 0..y.len() {
            assert!(
                (y[v] - y_ref[v]).abs() < 1e-2 * (1.0 + y_ref[v].abs()),
                "{name}: y[{v}]"
            );
        }
    }
}

#[test]
fn wcc_push_and_edge_agree_with_union_find() {
    let graph = rmat_graph();
    let expected = wcc::reference(&graph);
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    assert_eq!(wcc::push(&adj).label, expected);
    assert_eq!(wcc::edge_centric(&graph).label, expected);
}

#[test]
fn als_trains_on_generated_ratings() {
    let ratings = graphgen::netflix_like(300, 60, 15, 5);
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&ratings);
    let model = als::als(
        adj.out(),
        adj.incoming(),
        300,
        als::AlsConfig {
            iterations: 6,
            ..Default::default()
        },
    );
    let first = model.rmse_history[0];
    let last = *model.rmse_history.last().unwrap();
    assert!(last < first, "RMSE must decrease: {first} -> {last}");
    assert!(last < 1.0, "planted structure should be learnable: {last}");
}

#[test]
fn road_graph_full_pipeline() {
    let roads = graphgen::road_like(60, 40);
    let adj = CsrBuilder::new(Strategy::Dynamic, EdgeDirection::Both).build(&roads);
    let result = bfs::push_pull(&adj, 0);
    // Connected lattice: everything reachable; depth = w + h - 2.
    assert_eq!(result.reachable_count(), 60 * 40);
    let max_level = result.level.iter().max().copied().unwrap();
    assert_eq!(max_level, 60 + 40 - 2);
}
