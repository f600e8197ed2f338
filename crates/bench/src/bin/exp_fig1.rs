//! Figure 1: the pre-processing vs. algorithm trade-off for BFS on the
//! Twitter graph — push-pull wins algorithm time ~3×, but its doubled
//! pre-processing (both edge directions) makes it ~1.5× slower
//! end-to-end.

use egraph_bench::{fmt_ratio, fmt_secs, graphs, ExperimentCtx, ResultTable};
use egraph_core::algo::bfs;
use egraph_core::exec::ExecCtx;
use egraph_core::layout::EdgeDirection;
use egraph_core::preprocess::{CsrBuilder, Strategy};
use egraph_core::telemetry::{PhaseProfiler, RunTrace, TraceRecorder};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};

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

    // Minimum of N runs to filter shared-host scheduling noise.
    let reps = egraph_bench::reps();

    // Push: only the out-direction is built.
    let (adj_out, pre_push_secs) = egraph_bench::min_time(reps, || {
        let (adj, stats) =
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build_timed(&graph);
        (adj, stats.seconds)
    });
    let (push, _) = egraph_bench::min_time(reps, || {
        let r = bfs::push(&adj_out, root);
        let s = r.algorithm_seconds();
        (r, s)
    });

    // Push-pull: both directions are built (the Fig. 1 penalty).
    let (adj_both, pre_pp_secs) = egraph_bench::min_time(reps, || {
        let (adj, stats) =
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build_timed(&graph);
        (adj, stats.seconds)
    });
    let (push_pull, _) = egraph_bench::min_time(reps, || {
        let r = bfs::push_pull(&adj_both, root);
        let s = r.algorithm_seconds();
        (r, s)
    });

    assert_eq!(
        push.reachable_count(),
        push_pull.reachable_count(),
        "variants must agree"
    );

    let mut table = ResultTable::new(
        "fig1_bfs_push_vs_pushpull",
        &["config", "preprocess(s)", "algorithm(s)", "total(s)"],
    );
    let rows = [
        ("bfs push-pull", pre_pp_secs, push_pull.algorithm_seconds()),
        ("bfs push", pre_push_secs, push.algorithm_seconds()),
    ];
    for (name, pre, algo) in rows {
        table.add_row(vec![
            name.into(),
            fmt_secs(pre),
            fmt_secs(algo),
            fmt_secs(pre + algo),
        ]);
    }
    table.print();

    let algo_gain = push.algorithm_seconds() / push_pull.algorithm_seconds().max(1e-9);
    let total_pp = pre_pp_secs + push_pull.algorithm_seconds();
    let total_push = pre_push_secs + push.algorithm_seconds();
    println!();
    println!(
        "algorithm speedup of push-pull: {}   (paper: ~3x)",
        fmt_ratio(algo_gain)
    );
    println!(
        "end-to-end push-pull / push:    {}   (paper: ~1.5x worse)",
        fmt_ratio(total_pp / total_push.max(1e-9))
    );
    println!(
        "pre-processing push-pull / push: {}  (paper: ~2x)",
        fmt_ratio(pre_pp_secs / pre_push_secs.max(1e-9))
    );
    ctx.save(&table);

    // With --trace-out, replay the winning push-pull run once more
    // with a recorder and a phase profiler attached and emit the same
    // machine-readable document the CLI's `run --trace-out` produces:
    // its `preprocess` and `algorithm` phases, with memory.
    if ctx.tracing() {
        egraph_parallel::telemetry::reset();
        egraph_parallel::telemetry::enable();
        let recorder = TraceRecorder::new();
        let profiler = PhaseProfiler::enabled();
        let prepared = PreparedGraph::new(&graph).strategy(Strategy::RadixSort);
        let id: VariantId = "bfs/adj/push-pull".parse().expect("valid variant spec");
        let params = RunParams {
            root,
            ..RunParams::default()
        };
        run_variant(
            &id,
            &ExecCtx::new(None).recorder(&recorder).profiler(&profiler),
            &prepared,
            &params,
        )
        .expect("variant is in the support matrix");
        egraph_parallel::telemetry::disable();
        let pool = egraph_parallel::telemetry::snapshot();

        let mut trace = RunTrace::new("bfs");
        trace.config.insert("experiment".into(), "exp_fig1".into());
        trace.config.insert("flow".into(), "push-pull".into());
        trace.config.insert("scale".into(), ctx.scale.to_string());
        trace.config.insert(
            "threads".into(),
            egraph_parallel::current_num_threads().to_string(),
        );
        trace.absorb(&recorder);
        trace.phases = profiler.take_phases();
        trace
            .counters
            .insert("pool.regions".into(), pool.regions as f64);
        trace
            .counters
            .insert("pool.chunks".into(), pool.chunks as f64);
        trace
            .counters
            .insert("pool.tasks".into(), pool.tasks as f64);
        trace
            .counters
            .insert("pool.busy_seconds_total".into(), pool.total_busy_seconds());
        trace
            .counters
            .insert("pool.load_imbalance".into(), pool.load_imbalance());
        ctx.save_trace(&trace);
    }
}
