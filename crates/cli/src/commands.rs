//! Subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;
use std::time::Instant;

use egraph_core::algo::pagerank;
use egraph_core::exec::ExecCtx;
use egraph_core::metrics::{IterStat, StepMode, TimeBreakdown};
use egraph_core::preprocess::Strategy;
use egraph_core::roadmap;
use egraph_core::serve::{ServeConfig, ServeDaemon, ServeGraph};
use egraph_core::telemetry::json::{self, Value};
use egraph_core::telemetry::{NullRecorder, PhaseStart, Recorder, RunTrace, TraceRecorder};
use egraph_core::trace_diff::{diff_traces, DiffOptions};
use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};
use egraph_core::variant::{
    default_grid_side, run_variant, Algo, Direction, Layout, PreparedGraph, RunParams, SyncMode,
    VariantId, VariantOutput,
};
use egraph_parallel::{timeline, ThreadPool};
use egraph_storage::{read_edge_list, write_edge_list, FormatError};

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
egraph — multicore graph processing, every technique selectable

USAGE:
  egraph generate <rmat|twitter|road|netflix|uniform> --out FILE [options]
  egraph info <FILE>
  egraph run <bfs|pagerank|sssp|wcc|spmv> <FILE> [options]
  egraph serve <FILE> --listen H:P [options]
  egraph update <FILE> --deltas FILE.ndjson --out FILE  (offline merge)
  egraph update --to H:P --deltas FILE.ndjson [--compact false]
  egraph advise <FILE> --algo <bfs|pagerank|sssp|wcc|spmv>
                           (the §9 roadmap's pick for the file's average
                            degree, printed as algo/layout/direction)
  egraph convert <IN> <OUT> [--from snap|dimacs|bin] [--to snap|bin] [--weighted true]
  egraph trace diff <OLD> <NEW> [--threshold PCT] [--min-seconds S] [--min-bytes B]
  egraph explain <TRACE>   (per-iteration report: table, density sparkline,
                            and an English narrative of every push/pull switch
                            reconstructed from the trace's decision log)
  egraph conformance [--threads LIST] [--seed N] [--full true]

GENERATE OPTIONS:
  --scale N        log2 of the vertex count (default 16)
  --edge-factor N  edges per vertex for rmat/uniform (default 16)
  --seed N         RNG seed (default 42)
  --width/--height lattice dimensions for road
  --users/--items/--ratings   bipartite shape for netflix
  --weighted true  attach deterministic weights (rmat/road/uniform)

RUN OPTIONS:
  --layout adj|edge|grid|ccsr|delta   data layout (default adj)
  --flow push|pull|push-pull   information flow (default push)
  --sync locks|atomics     synchronization for push (default atomics)
  --strategy radix|count|dynamic   pre-processing (default radix)
  --root N     source vertex for bfs/sssp (default 0)
  --iters N    PageRank iterations (default 10)
  --side N     grid side, 1..=min(|V|, 4096) (default 256 clamped to the graph)
  --sorted true    sort per-vertex neighbor arrays
  --save FILE  store the result array (the end-to-end 'store' phase)
  --threads N  worker threads (or EGRAPH_THREADS)
  --trace-out FILE     write a run-wide telemetry trace as JSON (each
                       phase's time and memory, per-iteration records,
                       pool and storage counters, per-phase hardware
                       counters when the host allows)
  --timeline-out FILE  write timeline spans as Chrome trace-event JSON
                       (open in about:tracing/Perfetto): one track per
                       worker per pool
  --metrics-addr H:P   serve live Prometheus metrics at
                       http://H:P/metrics (plus /healthz) for the
                       duration of the run; port 0 picks a free port
                       and prints the bound address
  --metrics-linger S   keep serving S seconds after the run finishes
                       (default 0), so scrapers can catch the totals

SERVE OPTIONS:
  --listen H:P     query daemon address (required); port 0 picks a
                   free port — the bound address is printed either way
  --threads N      worker threads for wave execution (default: all)
  --max-wave N     most lanes (distinct sources) in one multi-source
                   wave; queries naming one source share its lane
                   (default 64, the bit-packed frontier width)
  --batch-window-ms MS   how long an admitted query waits for
                   companions before its wave launches anyway (default 2)
  --layout adj|grid|ccsr|delta   resident index layout (default adj);
                   the query-port /healthz reports the chosen layout
                   and its resident bytes once loading completes
  --metrics-addr / --metrics-linger   as for run; /healthz reports
                   'loading' until the layout build finishes
  --slow-query-ms MS   log any query whose total latency reaches MS
                   milliseconds to stderr as one NDJSON line
                   (0 logs every query; off by default)
  --journal-capacity N   flight-recorder ring size in events
                   (default 1024, 0 disables); the query port answers
                   HTTP GET /debug/queries?n=K with the last K
                   completed queries as NDJSON (each line carries the
                   graph epoch its wave executed against)
  --timeline-out FILE  as for run: write the spans of the daemon's
                   lifetime as Chrome trace-event JSON when it shuts
                   down, one track per worker per pool (the global
                   pool, which builds the layout, and the wave pool)
  The query-port /healthz line also reports queue_depth and inflight.
  The daemon answers newline-delimited JSON point queries
  ({\"id\":1,\"algo\":\"bfs|sssp|khop\",\"source\":N[,\"depth\":K][,\"values\":true]})
  plus edge-delta ops ({\"op\":\"insert|delete\",\"src\":N,\"dst\":N} and
  {\"op\":\"compact\"}) on the same port, and shuts down cleanly on
  SIGINT, SIGTERM or stdin EOF.

UPDATE OPTIONS:
  --deltas FILE    NDJSON edge-delta stream (required): one
                   {\"op\":\"insert\",\"src\":N,\"dst\":N[,\"weight\":W]} or
                   {\"op\":\"delete\",\"src\":N,\"dst\":N} object per line
  --out FILE       offline mode: merge the stream into <FILE> and
                   write the resulting edge list here
  --to H:P         streaming mode: forward each op to a running
                   `egraph serve` daemon instead of merging locally
  --compact true|false   streaming mode: finish with a {\"op\":\"compact\"}
                   so the daemon republishes at a new epoch (default true)
  --trace-out FILE offline mode: write a telemetry trace whose
                   'compact' phase times the merge

TRACE DIFF OPTIONS:
  --threshold PCT   relative slowdown that counts as a regression
                    (default 10); exits non-zero when exceeded
  --min-seconds S   ignore time metrics where both runs stayed under
                    S seconds (default 0.001)
  --min-bytes B     ignore peak-memory metrics where both runs stayed
                    under B bytes (default 1048576)
  Time rules also gate the serve.latency.* percentile counters
  (written by exp_serve_latency) when both traces carry them.

CONFORMANCE OPTIONS:
  --threads LIST   comma-separated thread counts (default 1,4,8)
  --seed N         corpus seed (default EGRAPH_TEST_SEED or built-in)
  --full true      exhaustive tier: larger corpus, thread count 2,
                   paper iteration counts (the nightly-CI matrix)
  Both tiers also run the update oracle: seeded insert/delete batches
  against every corpus graph, with delta-layout and incremental
  results checked against from-scratch recompute after every batch
  and after compaction (--full adds scheduler fault injection)
  --metrics-addr / --metrics-linger   as for run, without the
                   egraph_pool_* families (the matrix runs on pools of
                   its own, one per thread count)";

type CliResult = Result<(), Box<dyn Error>>;

/// A deliberate non-zero exit (a failed gate, not a usage mistake):
/// `main` reports it without reprinting the usage text.
#[derive(Debug)]
pub struct GateFailure(pub String);

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for GateFailure {}

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> CliResult {
    let args = Args::parse(argv)?;
    if args.positional_len() == 0 {
        return Err("no command given".into());
    }
    match args.positional(0, "command")? {
        "generate" => cmd_generate(&args),
        "info" => cmd_info(&args),
        "run" => cmd_run(&args),
        "serve" => cmd_serve(&args),
        "update" => cmd_update(&args),
        "advise" => cmd_advise(&args),
        "convert" => cmd_convert(&args),
        "trace" => cmd_trace(&args),
        "explain" => cmd_explain(&args),
        "conformance" => cmd_conformance(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'").into()),
    }
}

fn cmd_generate(args: &Args) -> CliResult {
    let kind = args.positional(1, "generator kind")?.to_string();
    let out = args
        .get("out")
        .ok_or("generate needs --out FILE")?
        .to_string();
    let scale: u32 = args.get_parsed_or("scale", 16, "integer")?;
    let seed: u64 = args.get_parsed_or("seed", 42, "integer")?;
    let edge_factor: usize = args.get_parsed_or("edge-factor", 16, "integer")?;
    let weighted = args.get_or("weighted", "false") == "true";

    let started = Instant::now();
    let unweighted: Option<EdgeList<Edge>> = match kind.as_str() {
        "rmat" => Some(egraph_graphgen::rmat(scale, edge_factor, seed)),
        "twitter" => Some(egraph_graphgen::twitter_like(scale, seed)),
        "road" => {
            let nv = 1usize << scale;
            let width: usize =
                args.get_parsed_or("width", (nv as f64 / 4.0).sqrt() as usize, "integer")?;
            let height: usize = args.get_parsed_or("height", nv / width.max(1), "integer")?;
            Some(egraph_graphgen::road_like(width, height))
        }
        "uniform" => Some(egraph_graphgen::uniform(
            1usize << scale,
            edge_factor << scale,
            seed,
        )),
        "netflix" => {
            let users: usize = args.get_parsed_or("users", 1usize << scale, "integer")?;
            let items: usize = args.get_parsed_or("items", (users / 32).max(16), "integer")?;
            let ratings: usize = args.get_parsed_or("ratings", 40, "integer")?;
            args.reject_unknown()?;
            let graph = egraph_graphgen::netflix_like(users, items, ratings, seed);
            let mut w = BufWriter::new(File::create(&out)?);
            write_edge_list(&mut w, &graph)?;
            println!(
                "wrote {} ({} users + {} items, {} weighted ratings) in {:.2}s",
                out,
                users,
                items,
                graph.num_edges(),
                started.elapsed().as_secs_f64()
            );
            return Ok(());
        }
        other => return Err(format!("unknown generator '{other}'").into()),
    };
    args.reject_unknown()?;

    let graph = unweighted.expect("handled above");
    let mut w = BufWriter::new(File::create(&out)?);
    if weighted {
        let weighted_graph: EdgeList<WEdge> = graph.map_records(|e| {
            let h = (e.src as u64 ^ ((e.dst as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            WEdge::new(e.src, e.dst, 0.25 + (h >> 40) as f32 % 16.0)
        });
        write_edge_list(&mut w, &weighted_graph)?;
    } else {
        write_edge_list(&mut w, &graph)?;
    }
    println!(
        "wrote {} ({} vertices, {} edges{}) in {:.2}s",
        out,
        graph.num_vertices(),
        graph.num_edges(),
        if weighted { ", weighted" } else { "" },
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Loads a file as unweighted or weighted, whichever the header says.
enum AnyGraph {
    Unweighted(EdgeList<Edge>),
    Weighted(EdgeList<WEdge>),
}

fn load_any(path: &str) -> Result<AnyGraph, Box<dyn Error>> {
    let r = BufReader::new(File::open(path)?);
    match read_edge_list::<Edge, _>(r) {
        Ok(g) => Ok(AnyGraph::Unweighted(g)),
        Err(FormatError::WeightednessMismatch { .. }) => {
            let r = BufReader::new(File::open(path)?);
            Ok(AnyGraph::Weighted(read_edge_list::<WEdge, _>(r)?))
        }
        Err(e) => Err(e.into()),
    }
}

fn cmd_info(args: &Args) -> CliResult {
    let path = args.positional(1, "input file")?;
    args.reject_unknown()?;
    let graph = load_any(path)?;
    fn describe<E: EdgeRecord>(graph: &EdgeList<E>, weighted: bool) {
        let s = egraph_core::inspect::summarize(graph);
        println!("vertices:     {}", s.num_vertices);
        println!("edges:        {}", s.num_edges);
        println!("weighted:     {weighted}");
        println!("avg degree:   {:.2}", s.avg_degree);
        println!(
            "max degree:   {} out / {} in",
            s.max_out_degree, s.max_in_degree
        );
        println!(
            "sinks:        {} ({:.1}%)",
            s.sinks,
            100.0 * s.sinks as f64 / s.num_vertices.max(1) as f64
        );
        println!("isolated:     {}", s.isolated);
        println!("self-loops:   {}", s.self_loops);
        println!("duplicates:   {}", s.duplicate_edges);
        println!("symmetric:    {}", s.symmetric);
        println!(
            "memory:       {:.1} MB as edge array",
            (s.num_edges * std::mem::size_of::<E>()) as f64 / 1e6
        );
    }
    match &graph {
        AnyGraph::Unweighted(g) => describe(g, false),
        AnyGraph::Weighted(g) => describe(g, true),
    }
    Ok(())
}

fn parse_strategy(name: &str) -> Result<Strategy, Box<dyn Error>> {
    match name {
        "radix" => Ok(Strategy::RadixSort),
        "count" => Ok(Strategy::CountSort),
        "dynamic" => Ok(Strategy::Dynamic),
        other => Err(format!("unknown strategy '{other}' (radix|count|dynamic)").into()),
    }
}

fn print_breakdown(b: &TimeBreakdown, extra: &str) {
    println!();
    println!("  load:         {:>8.3}s", b.load);
    println!("  pre-process:  {:>8.3}s", b.preprocess);
    println!("  algorithm:    {:>8.3}s", b.algorithm);
    if b.store > 0.0 {
        println!("  store:        {:>8.3}s", b.store);
    }
    println!("  ------------------------");
    println!("  end-to-end:   {:>8.3}s   {}", b.total(), extra);
}

/// Stores a `u32` result array if `--save` was given; returns the
/// seconds spent (the paper's "storing the results" phase).
fn save_u32(save: Option<&str>, values: &[u32]) -> Result<f64, Box<dyn Error>> {
    match save {
        None => Ok(0.0),
        Some(path) => {
            let (res, secs) = egraph_core::metrics::timed(|| -> std::io::Result<()> {
                let w = BufWriter::new(File::create(path)?);
                egraph_storage::write_u32_result(w, values)
            });
            res?;
            println!("saved result to {path}");
            Ok(secs)
        }
    }
}

/// Stores an `f32` result array if `--save` was given.
fn save_f32(save: Option<&str>, values: &[f32]) -> Result<f64, Box<dyn Error>> {
    match save {
        None => Ok(0.0),
        Some(path) => {
            let (res, secs) = egraph_core::metrics::timed(|| -> std::io::Result<()> {
                let w = BufWriter::new(File::create(path)?);
                egraph_storage::write_f32_result(w, values)
            });
            res?;
            println!("saved result to {path}");
            Ok(secs)
        }
    }
}

/// Starts the opt-in `/metrics` endpoint when `--metrics-addr` was
/// given, registering the scrape-time allocator sources first (the
/// caller registers the pool it runs on). Returns the server
/// handle so the caller controls when it shuts down, plus the
/// `--metrics-linger` grace period.
fn maybe_serve_metrics(
    args: &Args,
) -> Result<(Option<egraph_metrics::MetricsServer>, f64), Box<dyn Error>> {
    let addr = args.get("metrics-addr").map(str::to_string);
    let linger: f64 = args.get_parsed_or("metrics-linger", 0.0, "seconds")?;
    let Some(addr) = addr else {
        return Ok((None, linger));
    };
    egraph_metrics::register_alloc_metrics();
    let server = egraph_metrics::serve(addr.as_str())?;
    println!("serving metrics on http://{}/metrics", server.addr());
    Ok((Some(server), linger))
}

/// Writes the spans of `pools` to `path` as one Chrome trace-event
/// document, one process per pool and one track per worker.
fn write_timeline(path: &str, pools: &[(&str, &ThreadPool)]) -> CliResult {
    std::fs::write(path, timeline::chrome_trace_json(pools))?;
    let dropped: u64 = pools
        .iter()
        .map(|(_, p)| p.timeline().dropped_spans())
        .sum();
    if dropped > 0 {
        eprintln!("warning: {dropped} timeline spans dropped (per-worker track full)");
    }
    println!("wrote timeline to {path}");
    Ok(())
}

/// Holds the `/metrics` endpoint open for the `--metrics-linger` grace
/// period, then shuts it down.
fn finish_metrics(server: Option<egraph_metrics::MetricsServer>, linger: f64) {
    if let Some(server) = server {
        if linger > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(linger));
        }
        server.shutdown();
    }
}

/// Tees algorithm telemetry into the live metrics registry while
/// forwarding everything to the wrapped recorder, so a `/metrics`
/// scrape mid-run reports the same counter totals the final `RunTrace`
/// records (both read the identical stream of deltas).
struct MetricsRecorder<'a> {
    inner: &'a dyn Recorder,
    /// Engine counters seen so far, each resolved to its registry
    /// family once: drivers flush `engine.edges_examined` once per
    /// chunk from every worker, which must not format a name and take
    /// the registry's lock each time.
    counters: std::sync::RwLock<Vec<(&'static str, egraph_metrics::Counter)>>,
    iterations: egraph_metrics::Counter,
    edges: egraph_metrics::Counter,
    step_seconds: egraph_metrics::Histogram,
    iter_seconds: egraph_metrics::Histogram,
    iter_density: egraph_metrics::Histogram,
    iter_frontier: egraph_metrics::Histogram,
    direction_flips: egraph_metrics::Counter,
    current_iter: egraph_metrics::Gauge,
    /// Previous step's direction, for live flip counting: 0 = no step
    /// seen yet, 1 = push, 2 = pull. Atomic because `record_iteration`
    /// takes `&self`.
    last_mode: std::sync::atomic::AtomicU8,
}

impl<'a> MetricsRecorder<'a> {
    fn new(inner: &'a dyn Recorder) -> Self {
        let reg = egraph_metrics::global();
        Self {
            inner,
            counters: std::sync::RwLock::new(Vec::new()),
            iterations: reg.counter("egraph_algo_iterations_total", "Algorithm steps executed."),
            edges: reg.counter(
                "egraph_algo_edges_scanned_total",
                "Edges examined across all algorithm steps.",
            ),
            step_seconds: reg
                .histogram_seconds("egraph_algo_step_seconds", "Wall time per algorithm step."),
            iter_seconds: reg
                .histogram_seconds("egraph_iter_seconds", "Wall time per iteration record."),
            iter_density: reg.histogram_with_bounds(
                "egraph_iter_density",
                "Frontier density (observed load / |E|) per iteration; the \
                 Ligra pull cutoff sits at 0.05.",
                &[],
                vec![0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0],
            ),
            iter_frontier: reg.histogram_with_bounds(
                "egraph_iter_frontier_vertices",
                "Active vertices per iteration.",
                &[],
                egraph_metrics::Histogram::log2_bounds(0, 30),
            ),
            direction_flips: reg.counter(
                "egraph_iter_direction_flips_total",
                "Push/pull direction switches observed across iterations.",
            ),
            current_iter: reg.gauge(
                "egraph_iter_current",
                "Step index of the most recent iteration record.",
            ),
            last_mode: std::sync::atomic::AtomicU8::new(0),
        }
    }
}

impl Recorder for MetricsRecorder<'_> {
    fn record_counter(&self, name: &'static str, delta: u64) {
        const POISONED: &str = "a panic while the counter list was locked";
        let seen = self.counters.read().expect(POISONED);
        if let Some((_, counter)) = seen.iter().find(|(n, _)| *n == name) {
            counter.add(delta);
        } else {
            drop(seen);
            // Two workers may both miss; the registry hands both the
            // same family, so a duplicate entry here is harmless.
            let counter = egraph_metrics::global().counter(
                &format!(
                    "egraph_{}_total",
                    egraph_metrics::sanitize_metric_name(name)
                ),
                "Engine counter teed from the run recorder.",
            );
            counter.add(delta);
            self.counters.write().expect(POISONED).push((name, counter));
        }
        self.inner.record_counter(name, delta);
    }

    fn record_iteration(&self, step: usize, stat: &IterStat) {
        self.iterations.inc();
        self.edges.add(stat.edges_scanned as u64);
        self.step_seconds.observe(stat.seconds);
        self.iter_seconds.observe(stat.seconds);
        self.iter_density.observe(stat.density);
        self.iter_frontier.observe(stat.frontier_size as f64);
        self.current_iter.set(step as f64);
        let mode = match stat.mode {
            StepMode::Push => 1,
            StepMode::Pull => 2,
        };
        let prev = self
            .last_mode
            .swap(mode, std::sync::atomic::Ordering::Relaxed);
        if prev != 0 && prev != mode {
            self.direction_flips.inc();
        }
        self.inner.record_iteration(step, stat);
    }

    fn begin_phase(&self, name: &str) -> PhaseStart {
        self.inner.begin_phase(name)
    }

    fn end_phase(&self, start: PhaseStart) {
        self.inner.end_phase(start);
    }
}

/// Profiles the store phase only when a `--save` target exists, so
/// traces do not grow a zero-length phase on runs without one.
fn profiled_store(
    spec: &RunSpec<'_>,
    ctx: &ExecCtx<'_>,
    f: impl FnOnce() -> Result<f64, Box<dyn Error>>,
) -> Result<f64, Box<dyn Error>> {
    if spec.save.is_some() {
        ctx.profile("store", f)
    } else {
        f()
    }
}

#[allow(clippy::too_many_lines)]
fn cmd_run(args: &Args) -> CliResult {
    let algo = args.positional(1, "algorithm")?.to_string();
    let path = args.positional(2, "input file")?.to_string();
    let layout = args.get_or("layout", "adj").to_string();
    let flow = args.get_or("flow", "push").to_string();
    let sync = args.get_or("sync", "atomics").to_string();
    let strategy = parse_strategy(args.get_or("strategy", "radix"))?;
    let root: u32 = args.get_parsed_or("root", 0, "vertex id")?;
    let iters: usize = args.get_parsed_or("iters", 10, "integer")?;
    let sorted = args.get_or("sorted", "false") == "true";
    if let Some(threads) = args.get("threads") {
        // Must happen before the global pool is first used.
        std::env::set_var("EGRAPH_THREADS", threads);
    }
    let _ = args.get("side"); // consumed later by grid layouts
    let save = args.get("save").map(str::to_string);
    let trace_out = args.get("trace-out").map(str::to_string);
    let timeline_out = args.get("timeline-out").map(str::to_string);
    let (metrics_server, metrics_linger) = maybe_serve_metrics(args)?;
    args.reject_unknown()?;

    // The hardware counters only cover threads spawned after they open,
    // so the trace recorder must exist before anything creates the
    // global pool, which the run runs on.
    let trace_recorder = trace_out
        .as_ref()
        .map(|out| (out, TraceRecorder::with_hardware_counters()));
    let recorder: &dyn Recorder = match &trace_recorder {
        Some((_, trace)) => trace,
        None => &NullRecorder,
    };
    let pool = egraph_parallel::global_pool();
    if trace_out.is_some() || metrics_server.is_some() {
        // Counters must be collecting before the load phase starts.
        // enable() opens a fresh collection window (it zeroes first),
        // so a reused pool cannot leak a previous run's counts.
        pool.counters().enable();
    }
    if metrics_server.is_some() {
        egraph_metrics::register_pool_metrics(pool);
    }
    if timeline_out.is_some() {
        pool.timeline().reset();
        pool.timeline().enable();
    }

    let load_start = Instant::now();
    let any = ExecCtx::new(None)
        .recorder(recorder)
        .profile("load", || load_any(&path))?;
    let load = load_start.elapsed().as_secs_f64();
    let storage = storage_counters(&path, &any, load)?;
    if metrics_server.is_some() {
        register_storage_metrics(storage);
    }

    let spec = RunSpec {
        algo: &algo,
        layout: &layout,
        flow: &flow,
        sync: &sync,
        strategy,
        sorted,
        root,
        iters,
        load,
        save: save.as_deref(),
        args,
    };
    // With `--metrics-addr`, the run's recorder is teed into the live
    // registry.
    if metrics_server.is_some() {
        dispatch_run(&spec, any, &MetricsRecorder::new(recorder))?;
    } else {
        dispatch_run(&spec, any, recorder)?;
    }
    if let Some((out_path, recorder)) = &trace_recorder {
        pool.counters().disable();
        let mut trace = RunTrace::new(&algo);
        let available = recorder.available_counters();
        trace.config.insert(
            "hw_counters".to_string(),
            if available.is_empty() {
                "unavailable".to_string()
            } else {
                available
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(",")
            },
        );
        for (key, value) in [
            ("input", path.as_str()),
            ("layout", layout.as_str()),
            ("flow", flow.as_str()),
            ("sync", sync.as_str()),
            ("strategy", args.get_or("strategy", "radix")),
            ("root", &root.to_string()),
            ("iters", &iters.to_string()),
            ("threads", &pool.num_threads().to_string()),
        ] {
            trace.config.insert(key.to_string(), value.to_string());
        }
        trace.absorb(recorder);
        trace.absorb_pool(&pool.counters().snapshot());
        for (name, value) in storage {
            trace.counters.insert(format!("storage.{name}"), value);
        }
        std::fs::write(out_path, trace.to_json())?;
        println!("wrote trace to {out_path}");
    }
    if let Some(out_path) = &timeline_out {
        pool.timeline().disable();
        write_timeline(out_path, &[("global pool", pool)])?;
    }
    // The counter values survive disable(), so scrapers that arrive
    // during the linger window still read the run's final totals.
    pool.counters().disable();
    finish_metrics(metrics_server, metrics_linger);
    Ok(())
}

/// The storage numbers of one load, read off the load itself: the
/// input file's length, the edges it held and the `load` seconds the
/// breakdown prints. Throughput is bytes over seconds, 0 when the load
/// took no time. Each pair is `(name, value)`; a trace records
/// `storage.<name>`.
fn storage_counters(
    path: &str,
    graph: &AnyGraph,
    seconds: f64,
) -> Result<[(&'static str, f64); 4], Box<dyn Error>> {
    let bytes = std::fs::metadata(path)?.len() as f64;
    let records = match graph {
        AnyGraph::Unweighted(g) => g.num_edges(),
        AnyGraph::Weighted(g) => g.num_edges(),
    };
    let throughput = if seconds > 0.0 { bytes / seconds } else { 0.0 };
    Ok([
        ("bytes_read", bytes),
        ("records_parsed", records as f64),
        ("read_seconds", seconds),
        ("throughput_bytes_per_sec", throughput),
    ])
}

/// Publishes one load's [`storage_counters`] as the four
/// `egraph_storage_*` families. Registering again replaces the
/// callbacks, so a second run in one process reports its own load.
fn register_storage_metrics(storage: [(&'static str, f64); 4]) {
    let r = egraph_metrics::global();
    let [bytes, records, seconds, throughput] = storage.map(|(_, value)| value);
    r.counter_fn(
        "egraph_storage_bytes_read_total",
        "Bytes of the input file the run loaded (its length).",
        move || bytes,
    );
    r.counter_fn(
        "egraph_storage_records_parsed_total",
        "Edge records the run loaded.",
        move || records,
    );
    r.counter_fn(
        "egraph_storage_read_seconds_total",
        "Wall seconds of the run's load phase.",
        move || seconds,
    );
    r.gauge_fn(
        "egraph_storage_throughput_bytes_per_sec",
        "Load throughput: bytes over load seconds (0 when the load took no time).",
        move || throughput,
    );
}

/// Everything `run` needs besides the graph and the recorder.
struct RunSpec<'a> {
    algo: &'a str,
    layout: &'a str,
    flow: &'a str,
    sync: &'a str,
    strategy: Strategy,
    sorted: bool,
    root: u32,
    iters: usize,
    load: f64,
    save: Option<&'a str>,
    args: &'a Args,
}

/// Runs the requested variant with the given recorder and prints the
/// end-to-end time breakdown. All dispatch goes through
/// [`run_variant`]; this function only bridges CLI strings and the
/// weighted/unweighted input split.
fn dispatch_run(spec: &RunSpec<'_>, any: AnyGraph, recorder: &dyn Recorder) -> CliResult {
    let id = VariantId::new(
        spec.algo.parse::<Algo>()?,
        spec.layout.parse::<Layout>()?,
        spec.flow.parse::<Direction>()?,
    );
    let sync = spec.sync.parse::<SyncMode>()?;
    // Every kernel is generic over the edge record: an algorithm that
    // needs no weights ignores them, one that does gets `run_variant`'s
    // typed `NeedsWeights` error on an unweighted file.
    match any {
        AnyGraph::Unweighted(graph) => run_one(spec, &id, sync, &graph, recorder),
        AnyGraph::Weighted(graph) => run_one(spec, &id, sync, &graph, recorder),
    }
}

fn run_one<E: EdgeRecord>(
    spec: &RunSpec<'_>,
    id: &VariantId,
    sync: SyncMode,
    graph: &EdgeList<E>,
    recorder: &dyn Recorder,
) -> CliResult {
    // `run_variant` validates the side: a bad `--side` is its typed
    // error, not a panic in the grid builder.
    let side = default_grid_side(graph.num_vertices());
    let prepared = PreparedGraph::new(graph)
        .strategy(spec.strategy)
        .sort_neighbors(spec.sorted)
        .side(spec.args.get_parsed_or("side", side, "integer")?);
    let params = RunParams {
        root: spec.root,
        pagerank: pagerank::PagerankConfig {
            iterations: spec.iters,
            ..Default::default()
        },
        sync,
        ..Default::default()
    };
    let ctx = ExecCtx::new(None).recorder(recorder);
    let run = run_variant(id, &ctx, &prepared, &params)?;
    let mut breakdown = TimeBreakdown {
        load: spec.load,
        preprocess: run.preprocess_seconds,
        algorithm: run.algorithm_seconds,
        ..Default::default()
    };
    let root = spec.root;
    match &run.output {
        VariantOutput::Bfs(r) => {
            breakdown.store = profiled_store(spec, &ctx, || save_u32(spec.save, &r.parent))?;
            println!(
                "bfs from {root}: {} reachable, {} iterations",
                r.reachable_count(),
                r.iterations.len()
            );
        }
        VariantOutput::Pagerank(r) => {
            breakdown.store = profiled_store(spec, &ctx, || save_f32(spec.save, &r.ranks))?;
            println!(
                "pagerank: {} iterations; top vertices {:?}",
                r.iterations,
                r.top_k(3)
            );
        }
        VariantOutput::Wcc(r) => {
            breakdown.store = profiled_store(spec, &ctx, || save_u32(spec.save, &r.label))?;
            println!("wcc: {} components", r.component_count());
        }
        VariantOutput::Sssp(r) => {
            breakdown.store = profiled_store(spec, &ctx, || save_f32(spec.save, &r.dist))?;
            println!(
                "sssp from {root}: {} reachable, {} iterations",
                r.reachable_count(),
                r.iterations.len()
            );
        }
        VariantOutput::Spmv(r) => {
            breakdown.store = profiled_store(spec, &ctx, || save_f32(spec.save, &r.y))?;
            let norm: f64 =
                r.y.iter()
                    .map(|&v| (v as f64) * (v as f64))
                    .sum::<f64>()
                    .sqrt();
            println!("spmv: |y| = {norm:.3}");
        }
    }
    print_breakdown(&breakdown, "");
    Ok(())
}

/// Set by the signal handlers / stdin watcher; polled by `cmd_serve`.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
}

/// Routes SIGINT and SIGTERM to the shutdown flag. Declared directly
/// (libc is linked on every supported platform) so the workspace stays
/// dependency-free.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal);
        signal(SIGTERM, on_shutdown_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// A second, portable shutdown trigger: when stdin reaches EOF (the
/// parent closed the pipe) the daemon drains and exits — this is how
/// the integration tests ask for a clean shutdown.
fn watch_stdin_eof() {
    std::thread::spawn(|| {
        use std::io::Read;
        let mut buf = [0u8; 256];
        let mut stdin = std::io::stdin();
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

fn cmd_serve(args: &Args) -> CliResult {
    let path = args.positional(1, "input file")?.to_string();
    let listen = args
        .get("listen")
        .ok_or("serve needs --listen HOST:PORT")?
        .to_string();
    let threads: usize = args.get_parsed_or("threads", 0, "integer")?;
    let max_wave: usize = args.get_parsed_or("max-wave", 64, "integer")?;
    let window_ms: u64 = args.get_parsed_or("batch-window-ms", 2, "integer")?;
    let layout = args.get_or("layout", "adj").parse::<Layout>()?;
    if layout == Layout::EdgeList {
        return Err(
            "the edge layout has no servable per-vertex index; use adj, grid, ccsr or delta".into(),
        );
    }
    let slow_query = match args.get("slow-query-ms") {
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| format!("--slow-query-ms expects milliseconds, got '{raw}'"))?;
            Some(std::time::Duration::from_millis(ms))
        }
        None => None,
    };
    let journal_capacity: usize = args.get_parsed_or(
        "journal-capacity",
        ServeConfig::default().journal_capacity,
        "integer",
    )?;
    let timeline_out = args.get("timeline-out").map(str::to_string);
    let (metrics_server, metrics_linger) = maybe_serve_metrics(args)?;
    args.reject_unknown()?;

    // The global pool builds the resident layout: its spans are
    // recorded from the start.
    if timeline_out.is_some() {
        egraph_parallel::global_pool().timeline().enable();
    }

    // Load balancers polling either /healthz (query port or metrics
    // port) see `loading` until the layout build completes.
    egraph_metrics::set_health(egraph_metrics::Health::Loading);
    let graph = match load_any(&path)? {
        AnyGraph::Unweighted(g) => ServeGraph::Unweighted(g),
        AnyGraph::Weighted(g) => ServeGraph::Weighted(g),
    };
    let config = ServeConfig {
        threads,
        max_wave,
        batch_window: std::time::Duration::from_millis(window_ms),
        layout,
        metrics: true,
        journal_capacity,
        slow_query,
    };
    let daemon = ServeDaemon::start(&listen, graph, config)?;
    let waves = Arc::clone(daemon.pool());
    if metrics_server.is_some() {
        waves.counters().enable();
        egraph_metrics::register_pool_metrics(Arc::clone(&waves));
    }
    if timeline_out.is_some() {
        waves.timeline().enable();
    }
    daemon.wait_ready();
    egraph_metrics::set_health(egraph_metrics::Health::Ready);
    // The integration tests and scripts parse this exact line to learn
    // the ephemeral port.
    println!("serving on {}", daemon.addr());

    install_signal_handlers();
    watch_stdin_eof();
    while !SHUTDOWN.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("shutting down: draining in-flight queries");
    daemon.shutdown();
    if let Some(out_path) = &timeline_out {
        write_timeline(
            out_path,
            &[
                ("global pool", egraph_parallel::global_pool()),
                ("wave pool", &waves),
            ],
        )?;
    }
    finish_metrics(metrics_server, metrics_linger);
    println!("serve: clean shutdown");
    Ok(())
}

/// Applies an NDJSON edge-delta stream: offline (merge into a new edge
/// file, DESIGN.md §16) or streamed to a running daemon with `--to`.
fn cmd_update(args: &Args) -> CliResult {
    if let Some(addr) = args.get("to").map(str::to_string) {
        return cmd_update_stream(args, &addr);
    }
    let path = args.positional(1, "input file")?.to_string();
    let deltas_path = args
        .get("deltas")
        .ok_or("update needs --deltas FILE")?
        .to_string();
    let out = args
        .get("out")
        .ok_or("update needs --out FILE (or --to HOST:PORT to stream to a daemon)")?
        .to_string();
    let trace_out = args.get("trace-out").map(str::to_string);
    args.reject_unknown()?;

    let trace_recorder = trace_out
        .as_ref()
        .map(|out| (out, TraceRecorder::with_hardware_counters()));
    let recorder: &dyn Recorder = match &trace_recorder {
        Some((_, trace)) => trace,
        None => &NullRecorder,
    };
    let ctx = ExecCtx::new(None).recorder(recorder);
    let started = Instant::now();
    // Each phase is timed once, by the recorder: the graph and the delta
    // stream are both read under "load".
    let (any, ndjson) = ctx.profile("load", || -> Result<_, Box<dyn Error>> {
        Ok((load_any(&path)?, std::fs::read_to_string(&deltas_path)?))
    })?;

    fn merge_and_store<E: EdgeRecord>(
        graph: &EdgeList<E>,
        ndjson: &str,
        out: &str,
        ctx: &ExecCtx<'_>,
    ) -> Result<(usize, EdgeList<E>), Box<dyn Error>> {
        let batch = egraph_core::layout::DeltaBatch::<E>::parse_ndjson(ndjson)
            .map_err(|e| format!("delta stream: {e}"))?;
        batch
            .validate(graph.num_vertices())
            .map_err(|e| format!("delta stream: {e}"))?;
        let mut log = egraph_core::layout::DeltaLog::new();
        log.append(&batch);
        let merged = ctx.profile(egraph_core::exec::PHASE_COMPACT, || log.merge_into(graph));
        ctx.profile("store", || -> Result<(), Box<dyn Error>> {
            let mut w = BufWriter::new(File::create(out)?);
            write_edge_list(&mut w, &merged)?;
            Ok(())
        })?;
        Ok((batch.len(), merged))
    }

    let (applied, nv, ne) = match &any {
        AnyGraph::Unweighted(g) => {
            let (applied, merged) = merge_and_store(g, &ndjson, &out, &ctx)?;
            (applied, merged.num_vertices(), merged.num_edges())
        }
        AnyGraph::Weighted(g) => {
            let (applied, merged) = merge_and_store(g, &ndjson, &out, &ctx)?;
            (applied, merged.num_vertices(), merged.num_edges())
        }
    };
    if let Some((out_path, recorder)) = &trace_recorder {
        let mut trace = RunTrace::new("update");
        trace.absorb(recorder);
        trace.config.insert("input".to_string(), path.to_string());
        trace.config.insert("deltas".to_string(), deltas_path);
        std::fs::write(out_path, trace.to_json())?;
        println!("wrote trace to {out_path}");
    }
    println!(
        "applied {applied} delta ops: wrote {out} ({nv} vertices, {ne} edges) in {:.2}s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Streams each delta op to a running daemon over its query port and
/// (by default) finishes with a compact so the new epoch is queryable.
fn cmd_update_stream(args: &Args, addr: &str) -> CliResult {
    use std::io::{BufRead, Write};
    let deltas_path = args
        .get("deltas")
        .ok_or("update needs --deltas FILE")?
        .to_string();
    let compact = args.get_or("compact", "true") == "true";
    args.reject_unknown()?;

    let ndjson = std::fs::read_to_string(&deltas_path)?;
    let stream = std::net::TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut roundtrip = |line: &str| -> Result<String, Box<dyn Error>> {
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err("daemon closed the connection".into());
        }
        // A reply is an acceptance only when its top-level `ok` is true:
        // an accepted line may carry any id, `"error"` included.
        let reply = json::parse(response.trim());
        if reply.as_ref().ok().and_then(|r| r.get("ok")) != Some(&Value::Bool(true)) {
            return Err(format!("daemon rejected {line}: {}", response.trim()).into());
        }
        Ok(response)
    };

    let mut applied = 0usize;
    for line in ndjson.lines().filter(|l| !l.trim().is_empty()) {
        roundtrip(line)?;
        applied += 1;
    }
    println!("streamed {applied} delta ops to {addr}");
    if compact {
        let response = roundtrip(r#"{"op":"compact"}"#)?;
        println!("compacted: {}", response.trim());
    } else {
        println!("left pending (re-run with an empty stream and --compact true to publish)");
    }
    Ok(())
}

fn cmd_advise(args: &Args) -> CliResult {
    let path = args.positional(1, "input file")?;
    let algo: Algo = args.get("algo").ok_or("advise needs --algo A")?.parse()?;
    args.reject_unknown()?;
    let (num_vertices, num_edges) = match load_any(path)? {
        AnyGraph::Unweighted(g) => (g.num_vertices(), g.num_edges()),
        AnyGraph::Weighted(g) => (g.num_vertices(), g.num_edges()),
    };
    let avg_degree = num_edges as f64 / num_vertices.max(1) as f64;
    let r = roadmap::recommend(algo, avg_degree);
    let id = r.variant;
    println!("{id}  ({num_vertices} vertices, {num_edges} edges, avg degree {avg_degree:.2})");
    println!(
        "  run with: egraph run {} {path} --layout {} --flow {}",
        id.algo, id.layout, id.direction
    );
    for line in &r.rationale {
        println!("  * {line}");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> CliResult {
    match args.positional(1, "trace subcommand")? {
        "diff" => cmd_trace_diff(args),
        other => Err(format!("unknown trace subcommand '{other}' (expected 'diff')").into()),
    }
}

/// Reads a JSON [`RunTrace`] back from `path`.
fn load_trace(path: &str) -> Result<RunTrace, Box<dyn Error>> {
    Ok(RunTrace::from_json(&std::fs::read_to_string(path)?)?)
}

/// Renders a trace's iteration telemetry as a human-readable report;
/// exits non-zero only when the file is not a trace this build reads (a
/// run that recorded no steps reports "no per-iteration records").
fn cmd_explain(args: &Args) -> CliResult {
    let path = args.positional(1, "trace file")?.to_string();
    args.reject_unknown()?;
    let trace = load_trace(&path)?;
    print!("{}", egraph_core::explain::explain(&trace));
    Ok(())
}

fn cmd_trace_diff(args: &Args) -> CliResult {
    let old_path = args.positional(2, "baseline trace file")?.to_string();
    let new_path = args.positional(3, "candidate trace file")?.to_string();
    let defaults = DiffOptions::default();
    let opts = DiffOptions {
        threshold_pct: args.get_parsed_or("threshold", defaults.threshold_pct, "percent")?,
        min_seconds: args.get_parsed_or("min-seconds", defaults.min_seconds, "seconds")?,
        min_bytes: args.get_parsed_or("min-bytes", defaults.min_bytes, "bytes")?,
    };
    args.reject_unknown()?;

    let old = load_trace(&old_path)?;
    let new = load_trace(&new_path)?;
    let diff = diff_traces(&old, &new, &opts);

    println!("baseline:  {old_path} ({})", old.schema);
    println!("candidate: {new_path} ({})", new.schema);
    println!();
    println!(
        "{:<44} {:>16} {:>16} {:>9}",
        "metric", "old", "new", "delta"
    );
    for row in &diff.rows {
        let delta = row.delta_pct();
        let delta_str = if delta.is_nan() {
            "n/a".to_string()
        } else if delta.is_infinite() {
            "new".to_string()
        } else {
            format!("{delta:+.1}%")
        };
        println!(
            "{:<44} {:>16.6} {:>16.6} {:>9}{}{}",
            row.metric,
            row.old,
            row.new,
            delta_str,
            if row.gating { "" } else { "  (info)" },
            if row.regressed { "  << REGRESSED" } else { "" },
        );
    }
    println!();
    if diff.has_regressions() {
        println!(
            "{} regression(s) beyond the {:.1}% threshold:",
            diff.regressions.len(),
            opts.threshold_pct
        );
        for r in &diff.regressions {
            println!("  {r}");
        }
        return Err(Box::new(GateFailure(format!(
            "{} metric(s) regressed",
            diff.regressions.len()
        ))));
    }
    println!(
        "no regressions beyond the {:.1}% threshold",
        opts.threshold_pct
    );
    Ok(())
}

/// Runs the differential conformance matrix as a gate: every technique
/// combination over the shared corpus, against the serial reference and
/// the single-thread baseline. Non-zero exit on any mismatch.
fn cmd_conformance(args: &Args) -> CliResult {
    let seed = args.get_parsed_or("seed", egraph_testkit::test_seed(), "integer")?;
    let full = args
        .get_or("full", "false")
        .parse::<bool>()
        .unwrap_or(false);
    let mut cfg = if full {
        egraph_testkit::MatrixConfig::exhaustive(seed)
    } else {
        egraph_testkit::MatrixConfig::quick(seed)
    };
    if let Some(list) = args.get("threads") {
        let parsed: Result<Vec<usize>, _> =
            list.split(',').map(|s| s.trim().parse::<usize>()).collect();
        cfg.thread_counts =
            parsed.map_err(|_| format!("invalid --threads '{list}': expected e.g. 1,4,8"))?;
        if cfg.thread_counts.contains(&0) {
            return Err("--threads entries must be positive".into());
        }
    }
    let (metrics_server, metrics_linger) = maybe_serve_metrics(args)?;
    args.reject_unknown()?;

    let graphs = if full {
        egraph_testkit::exhaustive_corpus(seed)
    } else {
        egraph_testkit::quick_corpus(seed)
    };
    let start = Instant::now();
    let report = egraph_testkit::run_matrix(&graphs, &cfg);
    println!(
        "conformance: {} combinations over {} graphs at threads {:?} in {:.2}s (seed {seed:#x})",
        report.combos_run,
        graphs.len(),
        cfg.thread_counts,
        start.elapsed().as_secs_f64(),
    );
    let mut update_cfg = if full {
        egraph_testkit::UpdateConfig::exhaustive(seed)
    } else {
        egraph_testkit::UpdateConfig::quick(seed)
    };
    update_cfg.thread_counts.clone_from(&cfg.thread_counts);
    let update_start = Instant::now();
    let update_report = egraph_testkit::run_update_matrix(&graphs, &update_cfg);
    println!(
        "update oracle: {} checks ({} batches x {} ops per graph) in {:.2}s",
        update_report.checks_run,
        update_cfg.batches,
        update_cfg.ops_per_batch,
        update_start.elapsed().as_secs_f64(),
    );
    finish_metrics(metrics_server, metrics_linger);
    if report.mismatches.is_empty() && update_report.mismatches.is_empty() {
        println!("all combinations conformant (static matrix + update oracle)");
        return Ok(());
    }
    for m in report.mismatches.iter().chain(&update_report.mismatches) {
        println!("MISMATCH  {m}");
    }
    Err(Box::new(GateFailure(format!(
        "{} of {} combinations mismatched (reproduce with EGRAPH_TEST_SEED={seed:#x})",
        report.mismatches.len() + update_report.mismatches.len(),
        report.combos_run + update_report.checks_run
    ))))
}

/// Guesses a text/binary format from a file extension.
fn guess_format(path: &str) -> &'static str {
    if path.ends_with(".gr") {
        "dimacs"
    } else if path.ends_with(".txt") || path.ends_with(".snap") || path.ends_with(".el") {
        "snap"
    } else {
        "bin"
    }
}

fn cmd_convert(args: &Args) -> CliResult {
    let input = args.positional(1, "input file")?.to_string();
    let output = args.positional(2, "output file")?.to_string();
    let from = args.get_or("from", guess_format(&input)).to_string();
    let to = args.get_or("to", guess_format(&output)).to_string();
    let weighted = args.get_or("weighted", "false") == "true";
    args.reject_unknown()?;

    // Load into the weighted or unweighted in-memory form.
    let graph: AnyGraph = match from.as_str() {
        "bin" => load_any(&input)?,
        "dimacs" => AnyGraph::Weighted(egraph_storage::read_dimacs(BufReader::new(File::open(
            &input,
        )?))?),
        "snap" => {
            let r = BufReader::new(File::open(&input)?);
            if weighted {
                AnyGraph::Weighted(egraph_storage::read_snap::<WEdge, _>(r, None)?)
            } else {
                AnyGraph::Unweighted(egraph_storage::read_snap::<Edge, _>(r, None)?)
            }
        }
        other => return Err(format!("unknown input format '{other}'").into()),
    };

    let mut w = BufWriter::new(File::create(&output)?);
    let (nv, ne) = match (&graph, to.as_str()) {
        (AnyGraph::Unweighted(g), "bin") => {
            write_edge_list(&mut w, g)?;
            (g.num_vertices(), g.num_edges())
        }
        (AnyGraph::Weighted(g), "bin") => {
            write_edge_list(&mut w, g)?;
            (g.num_vertices(), g.num_edges())
        }
        (AnyGraph::Unweighted(g), "snap") => {
            egraph_storage::write_snap(&mut w, g)?;
            (g.num_vertices(), g.num_edges())
        }
        (AnyGraph::Weighted(g), "snap") => {
            egraph_storage::write_snap(&mut w, g)?;
            (g.num_vertices(), g.num_edges())
        }
        (_, other) => return Err(format!("unknown output format '{other}'").into()),
    };
    println!("converted {input} ({from}) -> {output} ({to}): {nv} vertices, {ne} edges");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::engine::EDGES_EXAMINED;

    /// Drivers flush `engine.edges_examined` once per chunk from every
    /// worker; all of it must land in one family, and the wrapped
    /// recorder must see the same total.
    #[test]
    fn many_counter_flushes_land_in_one_family() {
        const FAMILY: &str = "egraph_engine_edges_examined_total";
        let trace = TraceRecorder::new();
        let tee = MetricsRecorder::new(&trace);
        let before = egraph_metrics::global().counter(FAMILY, "").get();
        let (workers, flushes) = (4u64, 5_000u64);
        std::thread::scope(|s| {
            for w in 0..workers {
                let tee = &tee;
                s.spawn(move || {
                    for i in 0..flushes {
                        tee.record_counter(EDGES_EXAMINED, w + i);
                    }
                });
            }
        });
        let sum: u64 = (0..workers)
            .map(|w| (0..flushes).map(|i| w + i).sum::<u64>())
            .sum();
        let after = egraph_metrics::global().counter(FAMILY, "").get();
        assert_eq!(after - before, sum);
        assert_eq!(trace.counters()[EDGES_EXAMINED], sum as f64);
        let text = egraph_metrics::global().render();
        let type_line = format!("# TYPE {FAMILY} counter");
        assert_eq!(text.matches(&type_line).count(), 1, "{text}");
        // Every flush after the first found the name already resolved.
        let seen = tee.counters.read().unwrap();
        assert!((1..=workers as usize).contains(&seen.len()));
        assert!(seen.iter().all(|(name, _)| *name == EDGES_EXAMINED));
    }

    /// A load's storage numbers are the file's length, its edges and
    /// the load's seconds; throughput is bytes over seconds, and 0 when
    /// the load took no time.
    #[test]
    fn storage_counters_read_the_load() {
        let path = std::env::temp_dir().join("egraph-cli-unit-storage-counters.egr");
        let graph = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
        write_edge_list(File::create(&path).unwrap(), &graph).unwrap();
        let path = path.to_str().unwrap();
        let any = AnyGraph::Unweighted(graph);
        // A 32-byte header and two 8-byte records.
        assert_eq!(
            storage_counters(path, &any, 2.0).unwrap(),
            [
                ("bytes_read", 48.0),
                ("records_parsed", 2.0),
                ("read_seconds", 2.0),
                ("throughput_bytes_per_sec", 24.0),
            ]
        );
        let idle = storage_counters(path, &any, 0.0).unwrap();
        assert_eq!(idle[3], ("throughput_bytes_per_sec", 0.0));
    }
}
