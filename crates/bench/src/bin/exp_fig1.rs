//! Figure 1: the pre-processing vs. algorithm trade-off for BFS on the
//! Twitter graph — push-pull wins algorithm time ~3×, but its doubled
//! pre-processing (both edge directions) makes it ~1.5× slower
//! end-to-end.

use egraph_bench::{
    fmt_ratio, graphs, measure, phase_row, total_seconds, ExperimentCtx, ResultTable,
};
use egraph_core::exec::ExecCtx;
use egraph_core::telemetry::{RunTrace, TraceRecorder};
use egraph_core::variant::{PreparedGraph, RunParams, VariantId, VariantRun};
use egraph_parallel::ThreadPool;

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_fig1",
        "Figure 1 (BFS push vs push-pull, Twitter-shaped graph)",
    );

    let graph = graphs::twitter_like(ctx.scale);
    let root = graphs::best_root(&graph);
    println!(
        "graph: {} vertices, {} edges; root {}\n",
        graph.num_vertices(),
        graph.num_edges(),
        root
    );

    // Push builds only the out-direction; push-pull builds both (the
    // Fig. 1 penalty). Minimum of N runs filters shared-host noise.
    let prepare = || PreparedGraph::new(&graph);
    let params = RunParams {
        root,
        ..RunParams::default()
    };
    let [push_pull, push] = ["bfs/adj/push-pull", "bfs/adj/push"].map(|spec| {
        let id: VariantId = spec.parse().expect("valid variant spec");
        measure(
            &ExecCtx::new(None),
            prepare,
            &id,
            &params,
            egraph_bench::reps(),
        )
    });
    let reachable = |run: &VariantRun| run.output.as_bfs().expect("a BFS run").reachable_count();
    assert_eq!(
        reachable(&push),
        reachable(&push_pull),
        "variants must agree"
    );

    let mut table = ResultTable::new(
        "fig1_bfs_push_vs_pushpull",
        &["config", "preprocess(s)", "algorithm(s)", "total(s)"],
    );
    for (name, run) in [("bfs push-pull", &push_pull), ("bfs push", &push)] {
        table.add_row(phase_row(&[name], run));
    }
    table.print();

    println!();
    println!(
        "algorithm speedup of push-pull: {}   (paper: ~3x)",
        fmt_ratio(push.algorithm_seconds / push_pull.algorithm_seconds.max(1e-9))
    );
    println!(
        "end-to-end push-pull / push:    {}   (paper: ~1.5x worse)",
        fmt_ratio(total_seconds(&push_pull) / total_seconds(&push).max(1e-9))
    );
    println!(
        "pre-processing push-pull / push: {}  (paper: ~2x)",
        fmt_ratio(push_pull.preprocess_seconds / push.preprocess_seconds.max(1e-9))
    );
    ctx.save(&table);

    // With --trace-out, replay the winning push-pull run once more
    // with a trace recorder attached and emit the same machine-readable
    // document the CLI's `run --trace-out` produces: its `preprocess`
    // and `algorithm` phases, with memory. The replay runs on a pool
    // built after the recorder's counters open, so they cover its
    // workers.
    if ctx.tracing() {
        let recorder = TraceRecorder::with_hardware_counters();
        let pool = ThreadPool::with_default_size();
        pool.counters().enable();
        let id: VariantId = "bfs/adj/push-pull".parse().expect("valid variant spec");
        let traced = ExecCtx::new(&pool).recorder(&recorder);
        measure(&traced, prepare, &id, &params, 1);

        let mut trace = RunTrace::new("bfs");
        trace.config.insert("experiment".into(), "exp_fig1".into());
        trace.config.insert("flow".into(), "push-pull".into());
        trace.config.insert("scale".into(), ctx.scale.to_string());
        trace
            .config
            .insert("threads".into(), pool.num_threads().to_string());
        trace.absorb(&recorder);
        trace.absorb_pool(&pool.counters().snapshot());
        ctx.save_trace(&trace);
    }
}
