//! Serve-mode latency decomposition: where a query's time goes, per
//! lifecycle stage, batched vs one-at-a-time.
//!
//! Drives the in-process [`ServeEngine`] (no TCP — this experiment
//! isolates engine latency from socket noise) with concurrent clients
//! issuing BFS point queries under three configurations:
//!
//! - `single`: `max_wave = 1`, full observability — every query runs
//!   its own traversal, so queue time is the cost of waiting behind
//!   other queries' exclusive scans.
//! - `batched`: the full 64-query wave, full observability — queue
//!   time is bounded by the batch window, and exec time is shared.
//! - `batched-noobs`: batching with metrics and the flight-recorder
//!   journal disabled — the observability overhead baseline.
//!
//! For each mode it reports exact p50/p99 per stage (admission-queue
//! wait, wave execution, demux/write-back, and end-to-end total, taken
//! from [`QueryOutcome`]'s stage stamps) plus throughput, and saves
//! `bench_results/serve_latency.csv`. The batched run also cross-checks
//! the registry's log2-bucket [`Histogram::quantile`] estimate against
//! the exact total-latency p50 (must agree within one bucket, i.e. 2×).
//!
//! With `--trace-out FILE`, the batched-mode percentiles are exported
//! as `serve.latency.<stage>.p<N>_seconds` run counters, which
//! `egraph trace diff` gates on whenever both traces carry them.

use std::time::Instant;

use egraph_bench::{fmt_pct, graphs, ExperimentCtx, ResultTable};
use egraph_core::serve::{Query, QueryKind, ServeConfig, ServeEngine, ServeGraph};
use egraph_core::telemetry::RunTrace;

/// Concurrent client threads per mode.
const CLIENTS: usize = 8;
/// Queries issued by each client (sequential, closed-loop).
const PER_CLIENT: usize = 48;

/// Per-stage latency samples across every query of one mode.
#[derive(Default)]
struct StageSamples {
    queue: Vec<f64>,
    exec: Vec<f64>,
    demux: Vec<f64>,
    total: Vec<f64>,
}

impl StageSamples {
    fn absorb(&mut self, mut other: StageSamples) {
        self.queue.append(&mut other.queue);
        self.exec.append(&mut other.exec);
        self.demux.append(&mut other.demux);
        self.total.append(&mut other.total);
    }

    fn sort(&mut self) {
        for v in [
            &mut self.queue,
            &mut self.exec,
            &mut self.demux,
            &mut self.total,
        ] {
            v.sort_by(f64::total_cmp);
        }
    }

    fn stages(&self) -> [(&'static str, &[f64]); 4] {
        [
            ("queue", &self.queue),
            ("exec", &self.exec),
            ("demux", &self.demux),
            ("total", &self.total),
        ]
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One closed-loop client: sequential BFS queries, stage stamps taken
/// from the engine's own [`QueryOutcome`] plus a wall-clock total.
fn client(engine: &ServeEngine, roots: &[u32], first: usize) -> StageSamples {
    let mut samples = StageSamples::default();
    for i in 0..PER_CLIENT {
        let root = roots[(first + i) % roots.len()];
        let start = Instant::now();
        let rx = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: root,
                depth: 0,
            })
            .expect("bfs is always servable");
        let outcome = rx.recv().expect("engine answers before shutdown");
        samples.total.push(start.elapsed().as_secs_f64());
        samples.queue.push(outcome.wait_seconds);
        samples.exec.push(outcome.exec_seconds);
        samples.demux.push(outcome.demux_seconds);
    }
    samples
}

/// Runs one mode to completion; returns sorted samples and throughput.
fn drive(engine: &ServeEngine, roots: &[u32]) -> (StageSamples, f64) {
    let wall = Instant::now();
    let mut all = StageSamples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(engine, roots, c * PER_CLIENT)))
            .collect();
        for h in handles {
            all.absorb(h.join().expect("client thread"));
        }
    });
    let qps = (CLIENTS * PER_CLIENT) as f64 / wall.elapsed().as_secs_f64();
    all.sort();
    (all, qps)
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_serve_latency",
        "serve-mode latency decomposition (lifecycle spans, observability overhead)",
    );

    let graph = graphs::rmat(ctx.scale);
    println!(
        "graph: RMAT{} ({} vertices, {} edges); {CLIENTS} clients x {PER_CLIENT} queries per mode\n",
        ctx.scale,
        graph.num_vertices(),
        graph.num_edges()
    );
    let nv = graph.num_vertices() as u32;
    let roots: Vec<u32> = (0..64u32)
        .map(|i| (i.wrapping_mul(2654435761)) % nv)
        .collect();

    let modes: [(&str, ServeConfig); 3] = [
        (
            "single",
            ServeConfig {
                max_wave: 1,
                ..ServeConfig::default()
            },
        ),
        ("batched", ServeConfig::default()),
        (
            "batched-noobs",
            ServeConfig {
                metrics: false,
                journal_capacity: 0,
                ..ServeConfig::default()
            },
        ),
    ];

    let mut table = ResultTable::new(
        "serve_latency",
        &["mode", "stage", "queries", "p50(ms)", "p99(ms)", "qps"],
    );
    let mut batched_percentiles: Vec<(&'static str, f64, f64)> = Vec::new();
    let mut total_p50 = std::collections::BTreeMap::new();
    for (mode, config) in modes {
        // The stage histograms carry only algo/layout labels, which do
        // not distinguish modes — reset the registry between runs so
        // the quantile cross-check sees this mode's observations only.
        egraph_metrics::global().clear();
        let observed = config.metrics;
        let engine = ServeEngine::start(ServeGraph::Unweighted(graph.clone()), config);
        engine.wait_ready();
        let (samples, qps) = drive(&engine, &roots);
        println!("{mode}: {qps:.1} qps");
        for (stage, sorted) in samples.stages() {
            let (p50, p99) = (percentile(sorted, 0.50), percentile(sorted, 0.99));
            println!(
                "  {stage:>5}: p50 {:8.3} ms  p99 {:8.3} ms",
                p50 * 1e3,
                p99 * 1e3
            );
            table.add_row(vec![
                mode.into(),
                stage.into(),
                (CLIENTS * PER_CLIENT).to_string(),
                format!("{:.3}", p50 * 1e3),
                format!("{:.3}", p99 * 1e3),
                format!("{qps:.1}"),
            ]);
            if mode == "batched" {
                batched_percentiles.push((stage, p50, p99));
            }
        }
        total_p50.insert(mode, percentile(&samples.total, 0.50));

        if observed {
            // The registry's log2-bucket estimate must land within one
            // bucket (a factor of two) of the exact sample quantile.
            let hist = egraph_metrics::global().histogram_seconds_with_labels(
                "egraph_serve_query_seconds",
                "admission-to-demux query latency",
                &[("algo", "bfs"), ("layout", engine.layout_name())],
            );
            let est = hist.quantile(0.5).expect("engine recorded total latencies");
            let exact = percentile(&samples.total, 0.50);
            assert!(
                est >= exact / 2.0 && est <= exact * 2.0,
                "{mode}: registry p50 estimate {est} vs exact {exact} beyond one log2 bucket"
            );
            println!(
                "  registry p50 estimate {:.3} ms vs exact {:.3} ms (within one bucket)",
                est * 1e3,
                exact * 1e3
            );
        }
        println!();
        engine.shutdown();
    }

    let (with, without) = (total_p50["batched"], total_p50["batched-noobs"]);
    println!(
        "observability overhead on batched p50: {} ({:.3} ms observed vs {:.3} ms disabled)",
        fmt_pct((with - without) / without.max(1e-9)),
        with * 1e3,
        without * 1e3
    );
    table.print();
    ctx.save(&table);

    if ctx.tracing() {
        let mut trace = RunTrace::new("serve_latency");
        for (stage, p50, p99) in &batched_percentiles {
            trace
                .counters
                .insert(format!("serve.latency.{stage}.p50_seconds"), *p50);
            trace
                .counters
                .insert(format!("serve.latency.{stage}.p99_seconds"), *p99);
        }
        ctx.save_trace(&trace);
    }
}
