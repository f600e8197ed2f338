//! Figure 3: vertex-centric (adjacency list) vs edge-centric (edge
//! array) for BFS, PageRank and SpMV on RMAT.
//!
//! Expected shape: BFS strongly favours the adjacency list (frontier
//! work only); PageRank roughly ties end-to-end (better locality vs
//! pre-processing); SpMV favours the edge array (single pass, nothing
//! amortizes the pre-processing).

use egraph_bench::{fmt_secs, graphs, ExperimentCtx, ResultTable};
use egraph_core::algo::{bfs, pagerank, spmv};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::SyncMode;
use egraph_core::preprocess::{CsrBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig3",
        "Figure 3 (vertex-centric vs edge-centric, BFS/PR/SpMV)",
    );

    let graph = graphs::rmat(ctx.scale);
    let weighted = graphs::with_weights(&graph);
    let degrees = graphs::out_degrees_u32(&graph);
    let root = graphs::best_root(&graph);
    let pr_cfg = pagerank::PagerankConfig::default();

    let mut table = ResultTable::new(
        "fig3_vertex_vs_edge_centric",
        &[
            "algorithm",
            "layout",
            "preprocess(s)",
            "algorithm(s)",
            "total(s)",
        ],
    );
    let push_row = |table: &mut ResultTable, algo: &str, layout: &str, pre: f64, alg: f64| {
        table.add_row(vec![
            algo.into(),
            layout.into(),
            fmt_secs(pre),
            fmt_secs(alg),
            fmt_secs(pre + alg),
        ]);
    };

    // Minimum-of-N timing filters the host's first-touch page-fault
    // penalty and scheduling noise (see EXPERIMENTS.md).
    let reps = egraph_bench::reps();

    // --- BFS ---
    let (adj, pre_secs) = egraph_bench::min_time(reps, || {
        let (a, s) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&graph);
        (a, s.seconds)
    });
    let (r, bfs_adj) = egraph_bench::min_time(reps, || {
        let r = bfs::push(&adj, root);
        let s = r.algorithm_seconds();
        (r, s)
    });
    push_row(&mut table, "bfs", "adj", pre_secs, bfs_adj);
    let reachable = r.reachable_count();
    let (r, bfs_edge) = egraph_bench::min_time(reps, || {
        let r = bfs::edge_centric(&graph, root);
        let s = r.algorithm_seconds();
        (r, s)
    });
    assert_eq!(r.reachable_count(), reachable);
    push_row(&mut table, "bfs", "edge-array", 0.0, bfs_edge);

    // --- PageRank (10 iterations) ---
    let ((), pr_adj) = egraph_bench::min_time(reps, || {
        let r = pagerank::push(adj.out(), &degrees, pr_cfg, SyncMode::Atomics);
        ((), r.seconds)
    });
    push_row(&mut table, "pagerank", "adj", pre_secs, pr_adj);
    let ((), pr_edge) = egraph_bench::min_time(reps, || {
        let r = pagerank::edge_centric(&graph, &degrees, pr_cfg, SyncMode::Atomics);
        ((), r.seconds)
    });
    push_row(&mut table, "pagerank", "edge-array", 0.0, pr_edge);

    // --- SpMV ---
    let x: Vec<f32> = (0..graph.num_vertices())
        .map(|i| (i % 7) as f32 / 7.0)
        .collect();
    let (wadj, wpre_secs) = egraph_bench::min_time(reps, || {
        let (a, s) =
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&weighted);
        (a, s.seconds)
    });
    let ((), spmv_adj) = egraph_bench::min_time(reps, || {
        let r = spmv::push(wadj.out(), &x);
        ((), r.seconds)
    });
    push_row(&mut table, "spmv", "adj", wpre_secs, spmv_adj);
    let ((), spmv_edge) = egraph_bench::min_time(reps, || {
        let r = spmv::edge_centric(&weighted, &x);
        ((), r.seconds)
    });
    push_row(&mut table, "spmv", "edge-array", 0.0, spmv_edge);

    table.print();
    println!();
    println!("expected shape (paper Fig. 3): BFS total: adj << edge-array;");
    println!("PR total: adj ≈ edge-array; SpMV total: edge-array << adj.");
    ctx.save(&table);
}
