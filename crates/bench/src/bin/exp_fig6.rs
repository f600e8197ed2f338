//! Figure 6: per-iteration algorithm time of push vs pull BFS on RMAT.
//!
//! Expected shape: push wins the first iteration and the tail; pull
//! wins the middle iterations (2–3) where most of the graph is
//! discovered and push does redundant work.

use egraph_bench::{fmt_secs, graphs, measure, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner("exp_fig6", "Figure 6 (per-iteration push vs pull BFS)");

    let graph = graphs::rmat(ctx.scale);
    let params = RunParams {
        root: graphs::best_root(&graph),
        ..RunParams::default()
    };
    let [push, pull] = ["bfs/adj/push", "bfs/adj/pull"].map(|spec| {
        let id: VariantId = spec.parse().expect("valid variant spec");
        let prepare = || PreparedGraph::new(&graph);
        let run = measure(
            &ExecCtx::new(None),
            prepare,
            &id,
            &params,
            egraph_bench::reps(),
        );
        run.output.as_bfs().expect("a BFS run").clone()
    });
    assert_eq!(push.reachable_count(), pull.reachable_count());

    let mut table = ResultTable::new(
        "fig6_per_iteration_push_pull",
        &["iteration", "frontier", "push(s)", "pull(s)", "winner"],
    );
    let iters = push.iterations.len().max(pull.iterations.len());
    let mut pull_wins_middle = false;
    for i in 0..iters {
        let p = push.iterations.get(i);
        let q = pull.iterations.get(i);
        let ps = p.map(|s| s.seconds).unwrap_or(0.0);
        let qs = q.map(|s| s.seconds).unwrap_or(0.0);
        let winner = if ps < qs { "push" } else { "pull" };
        if (1..=3).contains(&i) && qs < ps {
            pull_wins_middle = true;
        }
        table.add_row(vec![
            (i + 1).to_string(),
            p.map(|s| s.frontier_size.to_string()).unwrap_or_default(),
            fmt_secs(ps),
            fmt_secs(qs),
            winner.into(),
        ]);
    }
    table.print();
    println!();
    println!(
        "pull wins the high-density middle iterations: {}",
        if pull_wins_middle {
            "yes (matches Fig. 6)"
        } else {
            "no (graph too small to show it)"
        }
    );
    println!("paper: push faster in iteration 1 and after 3; pull faster in iterations 2-3.");
    ctx.save(&table);
}
