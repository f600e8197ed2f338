//! Figure 3: vertex-centric (adjacency list) vs edge-centric (edge
//! array) for BFS, PageRank and SpMV on RMAT.
//!
//! Expected shape: BFS strongly favours the adjacency list (frontier
//! work only); PageRank roughly ties end-to-end (better locality vs
//! pre-processing); SpMV favours the edge array (single pass, nothing
//! amortizes the pre-processing).

use egraph_bench::{graphs, measure, phase_row, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig3",
        "Figure 3 (vertex-centric vs edge-centric, BFS/PR/SpMV)",
    );

    let graph = graphs::rmat(ctx.scale);
    let weighted = graphs::with_weights(&graph);
    let x: Vec<f32> = (0..graph.num_vertices())
        .map(|i| (i % 7) as f32 / 7.0)
        .collect();
    let bfs = RunParams {
        root: graphs::best_root(&graph),
        ..RunParams::default()
    };
    // PageRank runs its default 10 iterations.
    let pagerank = RunParams::default();
    let spmv = RunParams {
        x: Some(&x),
        ..RunParams::default()
    };

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

    // Minimum-of-N timing filters the host's first-touch page-fault
    // penalty and scheduling noise (see EXPERIMENTS.md).
    let reps = egraph_bench::reps();
    let plain = ExecCtx::new(None);
    let id = |spec: &str| -> VariantId { spec.parse().expect("valid variant spec") };
    let unweighted = || PreparedGraph::new(&graph);
    let mut reachable = None;
    for (algo, layout, spec, params) in [
        ("bfs", "adj", "bfs/adj/push", &bfs),
        ("bfs", "edge-array", "bfs/edge/push", &bfs),
        ("pagerank", "adj", "pagerank/adj/push", &pagerank),
        ("pagerank", "edge-array", "pagerank/edge/push", &pagerank),
    ] {
        let run = measure(&plain, unweighted, &id(spec), params, reps);
        if let Some(r) = run.output.as_bfs() {
            assert_eq!(
                *reachable.get_or_insert(r.reachable_count()),
                r.reachable_count()
            );
        }
        table.add_row(phase_row(&[algo, layout], &run));
    }
    for (layout, spec) in [("adj", "spmv/adj/push"), ("edge-array", "spmv/edge/push")] {
        let run = measure(
            &plain,
            || PreparedGraph::new(&weighted),
            &id(spec),
            &spmv,
            reps,
        );
        table.add_row(phase_row(&["spmv", layout], &run));
    }

    table.print();
    println!();
    println!("expected shape (paper Fig. 3): BFS total: adj << edge-array;");
    println!("PR total: adj ≈ edge-array; SpMV total: edge-array << adj.");
    ctx.save(&table);
}
