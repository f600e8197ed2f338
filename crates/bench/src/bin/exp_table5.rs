//! Table 5: best end-to-end approaches for BFS and PageRank on the
//! Twitter-shaped and US-Road-shaped graphs.
//!
//! Paper: BFS/Twitter → adj push; BFS/US-Road → adj push;
//! PR/Twitter → grid pull (no lock); PR/US-Road → edge array (the
//! low-degree road graph cannot amortize the grid's pre-processing).
//! This binary runs the paper's winning configuration for each row AND
//! the runner-up it beat, to verify the ordering holds. All timings
//! are minimum-of-N (EGRAPH_REPS) to filter host noise.

use egraph_bench::{graphs, measure, phase_row, reps, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

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
        // PageRank runs its default 10 iterations on the default grid
        // side.
        let bfs = RunParams {
            root: graphs::best_root(&graph),
            ..RunParams::default()
        };
        let pagerank = RunParams::default();
        // The BFS runner-up is min-of-1 on the road graph: it can take
        // minutes there, and the comparison is lopsided enough that
        // noise cannot change the verdict.
        let edge_reps = if graph_name == "US-Road" { 1 } else { reps };
        let mut reachable = None;
        for (algo, layout, model, spec, params, reps) in [
            ("BFS", "Adj. list", "Push", "bfs/adj/push", &bfs, reps),
            (
                "BFS",
                "Edge array",
                "Push",
                "bfs/edge/push",
                &bfs,
                edge_reps,
            ),
            (
                "Pagerank",
                "Grid",
                "Pull (no lock)",
                "pagerank/grid/pull",
                &pagerank,
                reps,
            ),
            (
                "Pagerank",
                "Edge array",
                "Push (atomics)",
                "pagerank/edge/push",
                &pagerank,
                reps,
            ),
        ] {
            let id: VariantId = spec.parse().expect("valid variant spec");
            let prepare = || PreparedGraph::new(&graph);
            let run = measure(&ExecCtx::new(None), prepare, &id, params, reps);
            if let Some(r) = run.output.as_bfs() {
                assert_eq!(
                    *reachable.get_or_insert(r.reachable_count()),
                    r.reachable_count()
                );
            }
            table.add_row(phase_row(&[algo, graph_name, layout, model], &run));
        }
    }
    table.print();

    println!();
    println!("paper Table 5: BFS Twitter adj/push 5.8+2.3=8.1; BFS US-Road adj/push 0.3+0.5=0.8;");
    println!("PR Twitter grid/pull 23.2+37.8=61.0; PR US-Road edge-array/pull 0.0+1.6=1.6");
    println!("expected shape: adj wins BFS on both graphs; grid wins PR on Twitter;");
    println!("edge array wins PR on the low-degree road graph.");
    ctx.save(&table);
}
