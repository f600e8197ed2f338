//! Table 5: best end-to-end approaches for BFS and PageRank on the
//! Twitter-shaped and US-Road-shaped graphs.
//!
//! Paper: BFS/Twitter → adj push; BFS/US-Road → adj push;
//! PR/Twitter → grid pull (no lock); PR/US-Road → edge array (the
//! low-degree road graph cannot amortize the grid's pre-processing).
//! This binary runs the paper's winning configuration for each row AND
//! the runner-up it beat, to verify the ordering holds. All timings
//! are minimum-of-N (EGRAPH_REPS) to filter host noise.

use egraph_bench::{fmt_secs, graphs, min_time, reps, ExperimentCtx, ResultTable};
use egraph_core::algo::{bfs, pagerank};
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::SyncMode;
use egraph_core::preprocess::{CsrBuilder, GridBuilder, Strategy};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_table5",
        "Table 5 (best approaches: BFS & PageRank on Twitter/US-Road)",
    );
    let reps = reps();

    let mut table = ResultTable::new(
        "table5_best_approaches",
        &[
            "algo",
            "graph",
            "layout",
            "model",
            "preprocess(s)",
            "algorithm(s)",
            "total(s)",
        ],
    );

    for (graph_name, graph) in [
        ("Twitter", graphs::twitter_like(ctx.scale)),
        ("US-Road", graphs::road_like(ctx.scale)),
    ] {
        let degrees = graphs::out_degrees_u32(&graph);
        let root = graphs::best_root(&graph);
        let side = graphs::grid_side(graph.num_vertices());
        let cfg = pagerank::PagerankConfig::default();

        // BFS best: adjacency list, push.
        let (adj, pre) = min_time(reps, || {
            let (a, s) =
                CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&graph);
            (a, s.seconds)
        });
        let (bfs_adj_result, bfs_adj) = min_time(reps, || {
            let r = bfs::push(&adj, root);
            let s = r.algorithm_seconds();
            (r, s)
        });
        table.add_row(vec![
            "BFS".into(),
            graph_name.into(),
            "Adj. list".into(),
            "Push".into(),
            fmt_secs(pre),
            fmt_secs(bfs_adj),
            fmt_secs(pre + bfs_adj),
        ]);
        // BFS runner-up: edge array (min-of-1 — this configuration can
        // take minutes on the road graph; the comparison is lopsided
        // enough that noise cannot change the verdict).
        let edge_reps = if graph_name == "US-Road" { 1 } else { reps };
        let (bfs_edge_result, bfs_edge) = min_time(edge_reps, || {
            let r = bfs::edge_centric(&graph, root);
            let s = r.algorithm_seconds();
            (r, s)
        });
        assert_eq!(
            bfs_adj_result.reachable_count(),
            bfs_edge_result.reachable_count()
        );
        table.add_row(vec![
            "BFS".into(),
            graph_name.into(),
            "Edge array".into(),
            "Push".into(),
            fmt_secs(0.0),
            fmt_secs(bfs_edge),
            fmt_secs(bfs_edge),
        ]);

        // PageRank: grid pull (no lock) vs edge array.
        let (grid, pre_grid) = min_time(reps, || {
            let (g, s) = GridBuilder::new(Strategy::RadixSort)
                .side(side)
                .build_timed(&graph);
            (g, s.seconds)
        });
        let ((), pr_grid) = min_time(reps, || {
            let r = pagerank::grid_pull(&grid, &degrees, cfg);
            ((), r.seconds)
        });
        table.add_row(vec![
            "Pagerank".into(),
            graph_name.into(),
            "Grid".into(),
            "Pull (no lock)".into(),
            fmt_secs(pre_grid),
            fmt_secs(pr_grid),
            fmt_secs(pre_grid + pr_grid),
        ]);
        let ((), pr_edge) = min_time(reps, || {
            let r = pagerank::edge_centric(&graph, &degrees, cfg, SyncMode::Atomics);
            ((), r.seconds)
        });
        table.add_row(vec![
            "Pagerank".into(),
            graph_name.into(),
            "Edge array".into(),
            "Push (atomics)".into(),
            fmt_secs(0.0),
            fmt_secs(pr_edge),
            fmt_secs(pr_edge),
        ]);
    }
    table.print();

    println!();
    println!("paper Table 5: BFS Twitter adj/push 5.8+2.3=8.1; BFS US-Road adj/push 0.3+0.5=0.8;");
    println!("PR Twitter grid/pull 23.2+37.8=61.0; PR US-Road edge-array/pull 0.0+1.6=1.6");
    println!("expected shape: adj wins BFS on both graphs; grid wins PR on Twitter;");
    println!("edge array wins PR on the low-degree road graph.");
    ctx.save(&table);
}
