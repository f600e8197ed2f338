//! Figure 8: PageRank synchronization strategies — push with locks vs
//! pull without locks, on adjacency lists and grids.
//!
//! Expected shape: removing locks wins. On adjacency lists, pull
//! (no locks) ~40% faster end-to-end than push (locks); on grids, the
//! no-lock (column/row ownership) version gains ~1.5× over the locked
//! one.

use egraph_bench::{
    fmt_ratio, graphs, measure, phase_row, total_seconds, ExperimentCtx, ResultTable,
};
use egraph_core::exec::ExecCtx;
use egraph_core::metrics::SyncMode;
use egraph_core::variant::{PreparedGraph, RunParams, VariantId};

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig8",
        "Figure 8 (PageRank: locks vs no locks, adj vs grid)",
    );

    // PageRank runs its default 10 iterations on the default grid side.
    let graph = graphs::rmat(ctx.scale);
    let reps = egraph_bench::reps();
    let [push_locks, pull_nolock, grid_locks, grid_nolock] = [
        ("pagerank/adj/push", SyncMode::Locks),
        ("pagerank/adj/pull", SyncMode::Atomics),
        ("pagerank/grid/push", SyncMode::Locks),
        ("pagerank/grid/push", SyncMode::Atomics),
    ]
    .map(|(spec, sync)| {
        let id: VariantId = spec.parse().expect("valid variant spec");
        let params = RunParams {
            sync,
            ..RunParams::default()
        };
        measure(
            &ExecCtx::new(None),
            || PreparedGraph::new(&graph),
            &id,
            &params,
            reps,
        )
    });

    let mut table = ResultTable::new(
        "fig8_pagerank_sync",
        &["config", "preprocess(s)", "algorithm(s)", "total(s)"],
    );
    for (name, run) in [
        ("adj. push (locks)", &push_locks),
        ("adj. pull (no lock)", &pull_nolock),
        ("grid (locks)", &grid_locks),
        ("grid (no lock)", &grid_nolock),
    ] {
        table.add_row(phase_row(&[name], run));
    }
    table.print();

    let gain = |slow, fast| fmt_ratio(total_seconds(slow) / total_seconds(fast).max(1e-9));
    println!();
    println!(
        "adj: pull(no lock) end-to-end gain over push(locks): {} (paper: ~40%)",
        gain(&push_locks, &pull_nolock)
    );
    println!(
        "grid: no-lock end-to-end gain over locks:            {} (paper: ~1.5x)",
        gain(&grid_locks, &grid_nolock)
    );
    ctx.save(&table);
}
