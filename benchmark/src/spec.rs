//! The frozen definition of the benchmark: workloads, sizes, rates and
//! every metric with its unit, direction and regression bound.
//! `BENCHMARK.json` at the repo root states the same thing for the
//! driver; a test keeps the two identical.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch_powerlaw",
        "RMAT, low diameter: load + sort/pre-process dominate a pass; shows storage, sort, preprocess, layout and the push-pull switch",
    ),
    (
        "batch_road",
        "shuffled lattice, high diameter: thousands of near-empty iterations; shows engine and parallel per-iteration cost, not pre-processing",
    ),
    (
        "serve_mixed",
        "resident graph, Zipf-rooted khop/bfs/sssp mix from 16 closed-loop callers, then 1024-query bursts (open loop when traced); shows wave batching, demux and the latency-throughput trade",
    ),
    (
        "update_stream",
        "delta batches with incremental repair, then reads beside a writer; shows delta, incr and compaction cost that read-only workloads hide",
    ),
];

/// End-to-end metrics. Every workload reports every one; the README's
/// table says what each means per workload.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("e2e_s", "s", Lower, 0.25),
    e2e("algo_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_p95_ms", "ms", Lower, 0.25),
];

/// Per-layer metrics, `<layer>.<metric>`, from the traced run. A
/// workload that never enters a layer reports `0` for it.
pub const PER_LAYER: [MetricDef; 68] = [
    layer("storage.load_s", "s", Lower),
    layer("storage.load_mb_per_s", "MB/s", Higher),
    layer("storage.bytes_read", "bytes", Lower),
    layer("sort.radix_medges_per_s", "Medges/s", Higher),
    layer("sort.count_medges_per_s", "Medges/s", Higher),
    layer("preprocess.csr_out_s", "s", Lower),
    layer("preprocess.csr_both_s", "s", Lower),
    layer("preprocess.grid_s", "s", Lower),
    layer("preprocess.ccsr_s", "s", Lower),
    layer("preprocess.prep_s", "s", Lower),
    layer("preprocess.share", "ratio", Lower),
    layer("layout.adj_bytes", "bytes", Lower),
    layer("layout.grid_bytes", "bytes", Lower),
    layer("layout.ccsr_bytes", "bytes", Lower),
    layer("layout.delta_bytes", "bytes", Lower),
    layer("layout.ccsr_ratio", "ratio", Lower),
    layer("algo.bfs_adj_push-pull.s", "s", Lower),
    layer("algo.pagerank_grid_pull.s", "s", Lower),
    layer("algo.pagerank_ccsr_pull.s", "s", Lower),
    layer("algo.wcc_edge_push.s", "s", Lower),
    layer("algo.sssp_adj_push.s", "s", Lower),
    layer("algo.bfs_adj_push.s", "s", Lower),
    layer("algo.wcc_adj_push.s", "s", Lower),
    layer("algo.pagerank_edge_push.s", "s", Lower),
    layer("engine.iterations", "count", Lower),
    layer("engine.edges_scanned", "count", Lower),
    layer("engine.direction_flips", "count", Lower),
    layer("engine.racy_iterations", "count", Lower),
    layer("engine.racy_edges_scanned", "count", Lower),
    layer("engine.us_per_iteration", "us", Lower),
    layer("engine.discovered_per_scan", "ratio", Higher),
    layer("parallel.busy_frac", "ratio", Higher),
    layer("parallel.imbalance", "ratio", Lower),
    layer("parallel.steals", "count", Lower),
    layer("parallel.regions", "count", Lower),
    layer("serve.wait_ms_p50", "ms", Lower),
    layer("serve.wait_ms_p95", "ms", Lower),
    layer("serve.exec_ms_p50", "ms", Lower),
    layer("serve.exec_ms_p95", "ms", Lower),
    layer("serve.demux_ms_p50", "ms", Lower),
    layer("serve.demux_ms_p95", "ms", Lower),
    layer("serve.wait_lo_ms_p50", "ms", Lower),
    layer("serve.lat_lo_p50_ms", "ms", Lower),
    layer("serve.lat_lo_p95_ms", "ms", Lower),
    layer("serve.lat_hi_p50_ms", "ms", Lower),
    layer("serve.lat_hi_p95_ms", "ms", Lower),
    layer("serve.wave_size_mean", "count", Higher),
    layer("serve.waves", "count", Lower),
    layer("serve.queries_per_scan_closed", "ratio", Higher),
    layer("serve.queries_per_scan_lo", "ratio", Higher),
    layer("serve.queries_per_scan_hi", "ratio", Higher),
    layer("serve.queries_per_scan_burst", "ratio", Higher),
    layer("serve.queue_depth_max", "count", Lower),
    layer("serve.gen_lag_ms_p95", "ms", Lower),
    layer("serve.backlog_slope", "1/s", Lower),
    layer("serve.max_rate_ok_qps", "1/s", Higher),
    layer("daemon.rtt_overhead_ms", "ms", Lower),
    layer("delta.apply_ops_per_s", "1/s", Higher),
    layer("delta.view_build_s", "s", Lower),
    layer("delta.compact_s", "s", Lower),
    layer("delta.pending_ops_max", "count", Lower),
    layer("incr.pagerank_s", "s", Lower),
    layer("incr.bfs_s", "s", Lower),
    layer("incr.wcc_s", "s", Lower),
    layer("incr.fallbacks", "count", Lower),
    layer("incr.touched_frac", "ratio", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// Sizes, rates and repetition rules of one mode (`full` is what
/// `BENCHMARK.json` measures; `quick` is the smoke-test scale).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `batch_powerlaw`: RMAT scale (edge factor 16).
    pub powerlaw_scale: u32,
    /// `batch_road`: lattice width and height.
    pub road_dims: (usize, usize),
    /// `serve_mixed`: weighted RMAT scale.
    pub serve_scale: u32,
    /// `update_stream`: unweighted RMAT scale.
    pub update_scale: u32,
    /// Distinct query sources (Zipf support) of the serving workloads.
    pub candidates: usize,
    /// Queries in one closed burst.
    pub burst: usize,
    /// Open-loop rates of `serve_mixed`, queries/s.
    pub rate_lo: f64,
    /// See [`Self::rate_lo`].
    pub rate_hi: f64,
    /// Concurrent callers of the closed-loop phases.
    pub clients: usize,
    /// Sequential queries over one TCP connection.
    pub tcp_queries: usize,
    /// How many times set-up runs (the median is reported).
    pub setup_reps: usize,
}

/// The measured scale.
pub const FULL: Sizes = Sizes {
    powerlaw_scale: 18,
    road_dims: (256, 1024),
    serve_scale: 15,
    update_scale: 16,
    candidates: 128,
    burst: 1024,
    rate_lo: 300.0,
    rate_hi: 700.0,
    clients: 16,
    tcp_queries: 30,
    setup_reps: 5,
};

/// The smoke-test scale (`--quick`): seconds in total, debug builds
/// included.
pub const QUICK: Sizes = Sizes {
    powerlaw_scale: 12,
    road_dims: (32, 64),
    serve_scale: 11,
    update_scale: 12,
    candidates: 16,
    burst: 128,
    rate_lo: 300.0,
    rate_hi: 700.0,
    clients: 4,
    tcp_queries: 20,
    setup_reps: 1,
};

/// Default seed when none is given.
pub const DEFAULT_SEED: u64 = 2017;

/// Seconds one run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Worker threads of the global pool: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Worker threads of a serve engine: one fewer than [`threads`], so the
/// load generator keeps a core and can hold its schedule. Sharing every
/// core with the engine made the generator run up to 3 ms late (a
/// kernel time slice) on the 2-core reference machine.
pub fn serve_threads(threads: usize) -> usize {
    threads.saturating_sub(1).max(1)
}
