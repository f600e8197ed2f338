//! `serve_mixed`: the read-only serving path.
//!
//! A `ServeEngine` (adj layout, default config) stays resident over a
//! weighted RMAT graph and is driven **in-process through
//! `ServeEngine::submit`**: the TCP handler is submit-then-wait per
//! connection, so with no more connections than cores a wave could
//! never form. Phases: warm-up; open loop at `rate_lo`; open loop at
//! `rate_hi`; closed bursts; then sequential queries over one TCP
//! connection to a `ServeDaemon`.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use egraph_core::serve::{
    QueryKind, QueryValues, ServeConfig, ServeDaemon, ServeEngine, ServeGraph,
};
use egraph_core::telemetry::json;
use egraph_core::types::{EdgeList, EdgeRecord, WEdge};
use egraph_storage::format::read_edge_list;

use crate::inputs::{self, Mix, Scheduled, Scratch, KHOP_DEPTH};
use crate::loadgen::{drive, Pace, Step, StepStats};
use crate::reference::{truncate_levels, RefCsr};
use crate::report::{json_field, Report};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, timed, tracer};
use crate::{repeat_set_up, RunCfg};

/// 60 % `khop` depth 2 / 25 % `bfs` / 15 % `sssp`. The three kinds
/// cost very different amounts, so latency has three clusters; the
/// shares keep both reported percentiles inside a cluster (p50 in
/// `khop`, p95 in `sssp`) instead of on the edge between two, where the
/// reading would flip with a handful of samples.
pub const MIX: Mix = Mix {
    bfs_pct: 25,
    sssp_pct: 15,
};

/// Queries of the untimed warm-up burst.
const WARMUP_QUERIES: usize = 64;

/// Latency limit of the rate ladder, ms (on the reported upper
/// percentile).
const LADDER_LIMIT_MS: f64 = 250.0;

/// The rate ladder of a traced run, as multiples of the frozen
/// saturation estimate `rate_lo / 0.25`.
const LADDER: [f64; 4] = [0.25, 0.4, 0.6, 0.8];

/// How a run's seconds are split over the phases. The open-loop steps
/// and the ladder feed per-layer metrics only, so only a traced run
/// spends time on them.
mod share {
    pub const CLOSED: (f64, f64) = (0.45, 0.2);
    pub const BURSTS: (f64, f64) = (0.5, 0.3);
    pub const OPEN_STEP: f64 = 0.15;
    pub const LADDER_RUNG: f64 = 0.04;

    /// The untraced or the traced share.
    pub fn of(shares: (f64, f64), traced: bool) -> f64 {
        if traced {
            shares.1
        } else {
            shares.0
        }
    }
}

/// Reference checksums per candidate source: what a right answer to
/// each query kind hashes to.
pub struct Expected {
    bfs: Vec<u64>,
    khop: Vec<u64>,
    sssp: Vec<u64>,
}

impl Expected {
    /// Computes the references for `candidates` on `threads` threads
    /// (each reference itself is serial).
    pub fn compute<E: EdgeRecord>(graph: &EdgeList<E>, candidates: &[u32], threads: usize) -> Self {
        let csr = RefCsr::new(
            graph.num_vertices(),
            graph.edges().iter().map(|e| (e.src(), e.dst(), e.weight())),
        );
        let chunk = candidates.len().div_ceil(threads.max(1)).max(1);
        let per_chunk: Vec<Vec<(u64, u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = candidates
                .chunks(chunk)
                .map(|sources| {
                    let csr = &csr;
                    scope.spawn(move || {
                        sources
                            .iter()
                            .map(|&source| {
                                let levels = csr.bfs_levels(source);
                                let khop = truncate_levels(&levels, KHOP_DEPTH);
                                let sssp = if E::WEIGHTED {
                                    QueryValues::Dists(csr.dijkstra(source)).checksum()
                                } else {
                                    0
                                };
                                (
                                    QueryValues::Levels(levels).checksum(),
                                    QueryValues::Levels(khop).checksum(),
                                    sssp,
                                )
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a reference thread panicked"))
                .collect()
        });
        let all: Vec<(u64, u64, u64)> = per_chunk.into_iter().flatten().collect();
        Self {
            bfs: all.iter().map(|c| c.0).collect(),
            khop: all.iter().map(|c| c.1).collect(),
            sssp: all.iter().map(|c| c.2).collect(),
        }
    }

    /// The checksum a right answer to `scheduled` carries.
    pub fn checksum(&self, scheduled: &Scheduled) -> u64 {
        match scheduled.query.kind {
            QueryKind::Bfs => self.bfs[scheduled.candidate],
            QueryKind::KHop => self.khop[scheduled.candidate],
            QueryKind::Sssp => self.sssp[scheduled.candidate],
        }
    }
}

/// Checks every sample of a step against the references and counts it.
pub fn check_step(step: &Step, schedule: &[Scheduled], expected: &Expected, report: &mut Report) {
    for (sample, scheduled) in step.samples.iter().zip(schedule) {
        report.check(sample.arrived.is_some() && sample.checksum == expected.checksum(scheduled));
    }
}

/// The serve configuration every engine of the benchmark starts with:
/// the product's defaults, on [`crate::spec::serve_threads`] threads.
pub fn serve_config(cfg: &RunCfg, layout: egraph_core::variant::Layout) -> ServeConfig {
    ServeConfig {
        threads: crate::spec::serve_threads(cfg.threads),
        layout,
        ..ServeConfig::default()
    }
}

struct Resident {
    engine: ServeEngine,
    daemon: ServeDaemon,
    candidates: Vec<u32>,
    expected: Expected,
    working_set_bytes: u64,
}

fn set_up(cfg: &RunCfg, scratch: &Scratch) -> Resident {
    let graph = inputs::rmat(cfg.sizes.serve_scale, cfg.seed);
    let candidates = inputs::candidate_sources(&graph, cfg.sizes.candidates, cfg.seed);
    let path = scratch.file("serve.w.egr");
    timed("storage", "write_edge_list", || {
        inputs::write_graph(&path, &inputs::weighted(&graph, cfg.seed))
            .expect("write the weighted graph file")
    });
    drop(graph);
    let (wgraph, _) = timed("storage", "read_edge_list", || {
        let file = File::open(&path).expect("open the graph file set-up wrote");
        read_edge_list::<WEdge, _>(BufReader::new(file)).expect("read the graph file set-up wrote")
    });
    let (expected, _) = timed("bench", "references", || {
        Expected::compute(&wgraph, &candidates, cfg.threads)
    });

    // Engines build their layout on the global pool from their own
    // scheduler thread; start them one after the other and wait, so no
    // two parallel regions ever overlap on that pool.
    let config = serve_config(cfg, egraph_core::variant::Layout::Adjacency);
    let (engine, _) = timed("serve", "ServeEngine::start", || {
        let engine = ServeEngine::start(ServeGraph::Weighted(wgraph.clone()), config.clone());
        engine.wait_ready();
        engine
    });
    let (daemon, _) = timed("daemon", "ServeDaemon::start", || {
        let daemon = ServeDaemon::start("127.0.0.1:0", ServeGraph::Weighted(wgraph), config)
            .expect("bind a loopback port for the daemon");
        daemon.wait_ready();
        daemon
    });
    let working_set_bytes = engine.resident_bytes();
    Resident {
        engine,
        daemon,
        candidates,
        expected,
        working_set_bytes,
    }
}

/// One request/response over the daemon's NDJSON protocol; returns the
/// response's checksum if the daemon answered `ok`.
fn tcp_query(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    id: usize,
    scheduled: &Scheduled,
) -> Option<u64> {
    let q = scheduled.query;
    // One write per request: a request split over several small packets
    // would measure Nagle's algorithm, not the daemon.
    let request = format!(
        "{{\"id\":{id},\"algo\":\"{}\",\"source\":{},\"depth\":{}}}\n",
        q.kind.name(),
        q.source,
        q.depth
    );
    stream.write_all(request.as_bytes()).ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let doc = json::parse(&line).ok()?;
    if json_field(&doc, "ok")? != &json::Value::Bool(true) {
        return None;
    }
    u64::from_str_radix(json_field(&doc, "checksum")?.as_str()?, 16).ok()
}

/// Sequential queries over one TCP connection, each checked; returns
/// the round-trip times in ms.
fn tcp_phase(resident: &Resident, schedule: &[Scheduled], report: &mut Report) -> Vec<f64> {
    let connect = || -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(resident.daemon.addr())?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    };
    let Ok((mut stream, mut reader)) = connect() else {
        for _ in schedule {
            report.check(false);
        }
        return Vec::new();
    };
    let mut rtts = Vec::new();
    for (id, scheduled) in schedule.iter().enumerate() {
        let (answer, secs) = timed("daemon", "tcp round trip", || {
            tcp_query(&mut stream, &mut reader, id, scheduled)
        });
        let ok = answer == Some(resident.expected.checksum(scheduled));
        report.check(ok);
        if ok {
            rtts.push(secs * 1e3);
        }
    }
    rtts
}

fn note_invalid(report: &mut Report, step: &str, stats: &StepStats) {
    if let Some(why) = &stats.invalid {
        report
            .notes
            .push(format!("INVALID open-loop step {step}: {why}"));
    }
}

/// Runs `serve_mixed`.
pub fn run(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let scratch = Scratch::new(&cfg.out_dir).expect("create the scratch directory");

    let (resident, warmup, step) = repeat_set_up(cfg, &mut report, || {
        let resident = set_up(cfg, &scratch);
        // Priming: the first waves fault the layout in and size the
        // engine's buffers.
        let warmup = inputs::query_schedule(&resident.candidates, WARMUP_QUERIES, MIX, cfg.seed, 0);
        let step = drive(&resident.engine, &warmup, Pace::Burst, 0);
        (resident, warmup, step)
    });
    check_step(&step, &warmup, &resident.expected, &mut report);
    let engine = &resident.engine;
    report.working_set_bytes = resident.working_set_bytes;

    // Closed loop: a fixed number of callers, each waiting for its
    // answer. This is the latency the end-to-end metrics report: with
    // the engine kept busy it does not hinge on how fast an idle virtual
    // CPU wakes up, which is what the open-loop latencies turned out to
    // measure on a shared host.
    tracer().set_enabled(cfg.traced);
    let closed_seconds = cfg.seconds * share::of(share::CLOSED, cfg.traced);
    let closed_schedule = inputs::query_schedule(
        &resident.candidates,
        (closed_seconds * CLOSED_SCHEDULE_QPS) as usize,
        MIX,
        cfg.seed,
        5,
    );
    let (closed, _) = timed("bench", "closed loop", || {
        let pace = Pace::Closed {
            clients: cfg.sizes.clients,
            seconds: closed_seconds,
        };
        drive(engine, &closed_schedule, pace, 5 << 32)
    });
    check_step(&closed, &closed_schedule, &resident.expected, &mut report);
    let closed_stats = closed.stats(None);

    // Open loop at two rates, then the rate ladder (traced runs only;
    // per-layer and informational).
    let open = |rate: f64, share: f64, phase: u64, report: &mut Report| {
        let count = ((rate * cfg.seconds * share) as usize).max(WARMUP_QUERIES);
        let schedule = inputs::query_schedule(&resident.candidates, count, MIX, cfg.seed, phase);
        let (step, _) = timed("bench", "open loop", || {
            drive(engine, &schedule, Pace::Open(rate), phase << 32)
        });
        check_step(&step, &schedule, &resident.expected, report);
        step
    };
    let mut open_steps = None;
    let mut max_rate_ok = 0.0;
    if cfg.traced {
        let lo = open(cfg.sizes.rate_lo, share::OPEN_STEP, 1, &mut report);
        let hi = open(cfg.sizes.rate_hi, share::OPEN_STEP, 2, &mut report);
        let (lo_stats, hi_stats) = (
            lo.stats(Some(cfg.sizes.rate_lo)),
            hi.stats(Some(cfg.sizes.rate_hi)),
        );
        note_invalid(&mut report, "rate_lo", &lo_stats);
        note_invalid(&mut report, "rate_hi", &hi_stats);
        open_steps = Some(((lo, lo_stats), (hi, hi_stats)));
        let saturation = cfg.sizes.rate_lo / LADDER[0];
        for (rung, multiple) in LADDER.iter().enumerate() {
            let rate = saturation * multiple;
            let step = open(rate, share::LADDER_RUNG, 10 + rung as u64, &mut report);
            let stats = step.stats(Some(rate));
            if stats.invalid.is_none() && stats.p95.value <= LADDER_LIMIT_MS {
                max_rate_ok = rate;
            }
        }
    }

    // Closed bursts: the saturation measurement. A traced run alternates
    // bursts with spans on and off to price the tracing.
    let burst_schedule =
        inputs::query_schedule(&resident.candidates, cfg.sizes.burst, MIX, cfg.seed, 3);
    let mut bursts: Vec<(Step, bool)> = Vec::new();
    let burst_seconds = cfg.seconds * share::of(share::BURSTS, cfg.traced);
    let deadline = Instant::now() + Duration::from_secs_f64(burst_seconds);
    while bursts.len() < MIN_BURSTS || Instant::now() < deadline {
        let instrumented = cfg.traced && bursts.len().is_multiple_of(2);
        tracer().set_enabled(instrumented);
        let (step, _) = timed("bench", "burst", || {
            drive(
                engine,
                &burst_schedule,
                Pace::Burst,
                (100 + bursts.len() as u64) << 32,
            )
        });
        check_step(&step, &burst_schedule, &resident.expected, &mut report);
        bursts.push((step, instrumented));
    }
    tracer().set_enabled(cfg.traced);

    // One TCP connection, sequential queries, against the daemon's own
    // engine; the same queries in-process on the (now idle) benchmark
    // engine give the baseline the round trip is compared with.
    let tcp_schedule = inputs::query_schedule(
        &resident.candidates,
        cfg.sizes.tcp_queries,
        MIX,
        cfg.seed,
        4,
    );
    let rtts = tcp_phase(&resident, &tcp_schedule, &mut report);
    let mut in_process = Vec::new();
    for (i, scheduled) in tcp_schedule.iter().enumerate() {
        let step = drive(
            engine,
            std::slice::from_ref(scheduled),
            Pace::Burst,
            (4 << 32) + i as u64,
        );
        check_step(
            &step,
            std::slice::from_ref(scheduled),
            &resident.expected,
            &mut report,
        );
        in_process.extend(step.samples[0].latency_ms());
    }
    tracer().set_enabled(false);
    report.record_peak_rss();

    // End-to-end.
    let burst_walls: Vec<f64> = bursts.iter().map(|(s, _)| s.wall_s).collect();
    let burst_kernel: Vec<f64> = bursts.iter().map(|(s, _)| s.kernel_seconds()).collect();
    let e2e = median(&burst_walls);
    report.set_noted(
        "e2e_s",
        e2e,
        bursts.len(),
        format!("closed burst of {} queries", cfg.sizes.burst),
    );
    report.set("algo_s", median(&burst_kernel), bursts.len());
    report.set_noted(
        "ops_per_s",
        cfg.sizes.burst as f64 / e2e,
        bursts.len(),
        "sat_qps: burst queries / burst wall".to_string(),
    );
    report.set_percentile("lat_p50_ms", closed_stats.p50, 0.5);
    report.set_percentile("lat_p95_ms", closed_stats.p95, 0.95);

    if let Some(((lo, lo_stats), (hi, hi_stats))) = &open_steps {
        layer_metrics(
            cfg,
            &resident,
            Phases {
                closed: (&closed, &closed_stats),
                lo: (lo, lo_stats),
                hi: (hi, hi_stats),
                bursts: &bursts,
            },
            max_rate_ok,
            (&rtts, &in_process),
            &mut report,
        );
    }
    report
}

/// Queries generated per second of closed loop: several times what the
/// engine can answer, so the callers never run out of schedule.
pub const CLOSED_SCHEDULE_QPS: f64 = 6000.0;

/// Fewest bursts whatever the time budget (even, so a traced run has as
/// many with spans as without).
const MIN_BURSTS: usize = 4;

struct Phases<'a> {
    closed: (&'a Step, &'a StepStats),
    lo: (&'a Step, &'a StepStats),
    hi: (&'a Step, &'a StepStats),
    bursts: &'a [(Step, bool)],
}

/// Stage percentiles of one step, ms: `(p50, p95)` of wait, exec, demux.
pub fn stage_percentiles(step: &Step, report: &mut Report, prefix: &str) {
    let answered: Vec<_> = step
        .samples
        .iter()
        .filter(|s| s.arrived.is_some())
        .collect();
    let stages: [(&str, Vec<f64>); 3] = [
        ("wait", answered.iter().map(|s| s.wait_s * 1e3).collect()),
        ("exec", answered.iter().map(|s| s.exec_s * 1e3).collect()),
        ("demux", answered.iter().map(|s| s.demux_s * 1e3).collect()),
    ];
    for (stage, ms) in stages {
        for (tag, want) in [("p50", 0.5), ("p95", 0.95)] {
            let name = format!("{prefix}.{stage}_ms_{tag}");
            report.set_percentile(&name, percentile(&ms, want), want);
        }
    }
}

fn layer_metrics(
    cfg: &RunCfg,
    resident: &Resident,
    phases: Phases<'_>,
    max_rate_ok: f64,
    (rtts, in_process): (&[f64], &[f64]),
    report: &mut Report,
) {
    let (lo, lo_stats) = phases.lo;
    let (hi, hi_stats) = phases.hi;

    // The closed loop is what `lat_*` report; its stage split explains
    // them. The open-loop steps show the window-bound (lo) and the
    // batching-bound (hi) regimes.
    let (closed, closed_stats) = phases.closed;
    stage_percentiles(closed, report, "serve");
    report.set(
        "serve.queries_per_scan_closed",
        closed_stats.answered as f64 / closed_stats.waves.max(1.0),
        closed_stats.answered,
    );
    report.set_percentile("serve.lat_lo_p50_ms", lo_stats.p50, 0.5);
    report.set_percentile("serve.lat_lo_p95_ms", lo_stats.p95, 0.95);
    report.set_percentile("serve.lat_hi_p50_ms", hi_stats.p50, 0.5);
    report.set_percentile("serve.lat_hi_p95_ms", hi_stats.p95, 0.95);
    let lo_wait: Vec<f64> = lo.samples.iter().map(|s| s.wait_s * 1e3).collect();
    report.set("serve.wait_lo_ms_p50", median(&lo_wait), lo_wait.len());

    let burst_stats: Vec<StepStats> = phases.bursts.iter().map(|b| b.0.stats(None)).collect();
    let burst_answered: usize = burst_stats.iter().map(|s| s.answered).sum();
    let burst_waves: f64 = burst_stats.iter().map(|s| s.waves).sum();
    report.set(
        "serve.queries_per_scan_lo",
        lo_stats.answered as f64 / lo_stats.waves.max(1.0),
        lo_stats.answered,
    );
    report.set(
        "serve.queries_per_scan_hi",
        hi_stats.answered as f64 / hi_stats.waves.max(1.0),
        hi_stats.answered,
    );
    report.set(
        "serve.queries_per_scan_burst",
        burst_answered as f64 / burst_waves.max(1.0),
        burst_answered,
    );
    let wave_sizes: Vec<f64> = hi.samples.iter().map(|s| s.wave_size as f64).collect();
    report.set("serve.wave_size_mean", mean(&wave_sizes), wave_sizes.len());
    report.set("serve.waves", hi_stats.waves, hi_stats.answered);
    report.set(
        "serve.queue_depth_max",
        hi_stats.queue_depth_max.max(lo_stats.queue_depth_max) as f64,
        lo.samples.len() + hi.samples.len(),
    );
    report.set(
        "serve.gen_lag_ms_p95",
        hi_stats.gen_lag_ms_p95.max(lo_stats.gen_lag_ms_p95),
        lo.samples.len() + hi.samples.len(),
    );
    report.set(
        "serve.backlog_slope",
        hi_stats.backlog_slope.max(lo_stats.backlog_slope),
        lo.samples.len() + hi.samples.len(),
    );
    report.set_noted(
        "serve.max_rate_ok_qps",
        max_rate_ok,
        LADDER.len(),
        format!(
            "highest of {LADDER:?} x {} queries/s with p95 <= {LADDER_LIMIT_MS} ms and a flat backlog",
            cfg.sizes.rate_lo / LADDER[0]
        ),
    );

    report.set(
        "daemon.rtt_overhead_ms",
        median(rtts) - median(in_process),
        rtts.len().min(in_process.len()),
    );
    report.set("layout.adj_bytes", resident.working_set_bytes as f64, 1);

    trace::report_overhead(report, phases.bursts.iter().map(|b| (b.0.wall_s, b.1)));
}
