//! Figure 7: BFS on a directed RMAT graph — push-pull vs push (with
//! locks) vs pull (without locks), end-to-end.
//!
//! Expected shape: push-pull has the best algorithm time but the worst
//! end-to-end time (both directions must be built); push beats pull by
//! ~20% despite using locks, because only a small fraction of vertices
//! is active per iteration.

use egraph_bench::{
    fmt_ratio, graphs, measure, phase_row, total_seconds, ExperimentCtx, ResultTable,
};
use egraph_core::exec::ExecCtx;
use egraph_core::metrics::SyncMode;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig7",
        "Figure 7 (BFS push-pull vs push(locks) vs pull(no lock))",
    );

    let graph = graphs::rmat(ctx.scale);
    let root = graphs::best_root(&graph);
    let params = |sync| RunParams {
        root,
        sync,
        ..RunParams::default()
    };

    let reps = egraph_bench::reps();
    let [push_pull, push_locked, pull] = [
        ("bfs/adj/push-pull", SyncMode::Atomics),
        ("bfs/adj/push", SyncMode::Locks),
        ("bfs/adj/pull", SyncMode::Atomics),
    ]
    .map(|(spec, sync)| {
        let id: VariantId = spec.parse().expect("valid variant spec");
        let prepare = || PreparedGraph::new(&graph);
        measure(&ExecCtx::new(None), prepare, &id, &params(sync), reps)
    });
    let reachable = [&push_pull, &push_locked, &pull]
        .map(|run| run.output.as_bfs().expect("a BFS run").reachable_count());
    assert_eq!(reachable[0], reachable[1]);
    assert_eq!(reachable[0], reachable[2]);

    let mut table = ResultTable::new(
        "fig7_bfs_flow_variants",
        &["config", "preprocess(s)", "algorithm(s)", "total(s)"],
    );
    for (name, run) in [
        ("adj. push-pull", &push_pull),
        ("adj. push (locks)", &push_locked),
        ("adj. pull (no lock)", &pull),
    ] {
        table.add_row(phase_row(&[name], run));
    }
    table.print();

    println!();
    println!(
        "push-pull end-to-end vs push: {} (paper: ~1.5x worse)",
        fmt_ratio(total_seconds(&push_pull) / total_seconds(&push_locked).max(1e-9))
    );
    println!(
        "pull vs push algorithm time:  {} (paper: push ~20% better)",
        fmt_ratio(pull.algorithm_seconds / push_locked.algorithm_seconds.max(1e-9))
    );
    ctx.save(&table);
}
