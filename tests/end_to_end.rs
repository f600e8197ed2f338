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

/// Runs the variant `spec` (`algo/layout/direction`) on `graph`.
fn run<E: EdgeRecord>(
    spec: &str,
    graph: &PreparedGraph<'_, E>,
    params: &RunParams,
) -> VariantOutput {
    let id: VariantId = spec.parse().unwrap();
    run_variant(&id, &ExecCtx::new(None), graph, params)
        .unwrap()
        .output
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
        let prepared = PreparedGraph::new(&loaded).strategy(strategy);
        let params = RunParams {
            root,
            ..RunParams::default()
        };
        let out = run("bfs/adj/push", &prepared, &params);
        let result = out.as_bfs().unwrap();
        bfs::validate(adj.out(), root, result);
        baselines.push(result.level.clone());
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
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&graph);
    let prepared = PreparedGraph::new(&graph)
        .grid_strategy(Strategy::CountSort)
        .side(8);
    let expected = bfs::reference(adj.out(), root);

    for (name, spec, sync) in [
        ("push", "bfs/adj/push", SyncMode::Atomics),
        ("push_locked", "bfs/adj/push", SyncMode::Locks),
        ("pull", "bfs/adj/pull", SyncMode::Atomics),
        ("push_pull", "bfs/adj/push-pull", SyncMode::Atomics),
        ("edge", "bfs/edge/push", SyncMode::Atomics),
        ("grid", "bfs/grid/push", SyncMode::Atomics),
    ] {
        let params = RunParams {
            root,
            sync,
            ..RunParams::default()
        };
        let out = run(spec, &prepared, &params);
        assert_eq!(out.as_bfs().unwrap().level, expected, "{name}");
    }
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

    let prepared = PreparedGraph::new(&graph).side(8);
    for (name, spec, sync) in [
        ("pull", "pagerank/adj/pull", SyncMode::Atomics),
        ("push-locks", "pagerank/adj/push", SyncMode::Locks),
        ("edge", "pagerank/edge/push", SyncMode::Atomics),
        ("grid-cols", "pagerank/grid/push", SyncMode::Atomics),
        ("grid-pull", "pagerank/grid/pull", SyncMode::Atomics),
    ] {
        let params = RunParams {
            pagerank: cfg,
            sync,
            ..RunParams::default()
        };
        let out = run(spec, &prepared, &params);
        let ranks = &out.as_pagerank().unwrap().ranks;
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

    let prepared = PreparedGraph::new(&weighted).strategy(Strategy::CountSort);
    let out = run("sssp/adj/push", &prepared, &RunParams::default());
    let dist = &out.as_sssp().unwrap().dist;
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
    let params = RunParams {
        x: Some(&x),
        ..RunParams::default()
    };
    for (name, spec) in [
        ("edge", "spmv/edge/push"),
        ("push", "spmv/adj/push"),
        ("pull", "spmv/adj/pull"),
    ] {
        let out = run(spec, &prepared, &params);
        let y = &out.as_spmv().unwrap().y;
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
    let prepared = PreparedGraph::new(&graph);
    for spec in ["wcc/adj/push", "wcc/edge/push"] {
        let out = run(spec, &prepared, &RunParams::default());
        assert_eq!(out.as_wcc().unwrap().label, expected, "{spec}");
    }
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
    let prepared = PreparedGraph::new(&roads).strategy(Strategy::Dynamic);
    let out = run("bfs/adj/push-pull", &prepared, &RunParams::default());
    let result = out.as_bfs().unwrap();
    // Connected lattice: everything reachable; depth = w + h - 2.
    assert_eq!(result.reachable_count(), 60 * 40);
    let max_level = result.level.iter().max().copied().unwrap();
    assert_eq!(max_level, 60 + 40 - 2);
}
