//! The two batch workloads: `batch_powerlaw` and `batch_road`.
//!
//! One *pass* runs five jobs. Each job pays the whole end-to-end cost
//! the paper insists on: read the graph file, build a **fresh**
//! `PreparedGraph`, run one variant. Passes repeat for the run's
//! seconds; every job's answer is checked against the serial
//! references between passes, outside the timed region.

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Instant;

use egraph_core::exec::ExecCtx;
use egraph_core::layout::EdgeDirection;
use egraph_core::metrics::IterStat;
use egraph_core::preprocess::{CcsrBuilder, CsrBuilder, GridBuilder, Strategy};
use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};
use egraph_core::variant::{
    default_grid_side, run_variant, Algo, PreparedGraph, RunParams, VariantId, VariantOutput,
    VariantRun,
};
use egraph_storage::format::read_edge_list;

use crate::inputs::{self, Scratch};
use crate::reference::{relative_l1, wcc_labels, RefCsr};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, timed, tracer};
use crate::{repeat_set_up, RunCfg};

/// Which graph shape the pass runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Edge-factor-16 RMAT.
    Powerlaw,
    /// Edge-shuffled 2D lattice.
    Road,
}

impl Shape {
    /// The five jobs of one pass, in run order.
    pub fn jobs(self) -> [&'static str; 5] {
        match self {
            Shape::Powerlaw => [
                "bfs/adj/push-pull",
                "pagerank/grid/pull",
                "pagerank/ccsr/pull",
                "wcc/edge/push",
                "sssp/adj/push",
            ],
            Shape::Road => [
                "bfs/adj/push",
                "bfs/adj/push-pull",
                "sssp/adj/push",
                "wcc/adj/push",
                "pagerank/edge/push",
            ],
        }
    }
}

/// Agreement demanded of a PageRank answer with the serial `f64` power
/// iteration: relative L1 distance.
pub const RANK_TOLERANCE: f64 = 1e-4;

/// Serial reference answers for the workload's graph.
struct References {
    levels: Vec<u32>,
    labels: Vec<u32>,
    dists: Vec<f32>,
    ranks: Vec<f64>,
}

/// What set-up leaves behind for the passes.
struct Inputs {
    graph: EdgeList<Edge>,
    unweighted: (PathBuf, u64),
    weighted: (PathBuf, u64),
    root: u32,
    refs: References,
}

fn set_up(shape: Shape, cfg: &RunCfg, scratch: &Scratch) -> Inputs {
    let (graph, root) = match shape {
        Shape::Powerlaw => {
            let g = inputs::rmat(cfg.sizes.powerlaw_scale, cfg.seed);
            let root = inputs::hub_root(&g);
            (g, root)
        }
        Shape::Road => {
            let (w, h) = cfg.sizes.road_dims;
            // The lattice corner: the longest traversal the shape offers.
            (inputs::lattice(w, h, cfg.seed), 0)
        }
    };
    let wgraph = inputs::weighted(&graph, cfg.seed);
    let unweighted = scratch.file("graph.egr");
    let weighted = scratch.file("graph.w.egr");
    let (ubytes, _) = timed("storage", "write_edge_list", || {
        inputs::write_graph(&unweighted, &graph).expect("write the unweighted graph file")
    });
    let (wbytes, _) = timed("storage", "write_edge_list", || {
        inputs::write_graph(&weighted, &wgraph).expect("write the weighted graph file")
    });

    let nv = graph.num_vertices();
    let csr = RefCsr::new(
        nv,
        wgraph
            .edges()
            .iter()
            .map(|e| (e.src(), e.dst(), e.weight())),
    );
    let damping = f64::from(RunParams::default().pagerank.damping);
    let iterations = RunParams::default().pagerank.iterations;
    let refs = References {
        levels: csr.bfs_levels(root),
        labels: wcc_labels(nv, graph.edges().iter().map(|e| (e.src(), e.dst()))),
        dists: csr.dijkstra(root),
        ranks: csr.pagerank(damping, iterations, 0.0),
    };
    Inputs {
        graph,
        unweighted: (unweighted, ubytes),
        weighted: (weighted, wbytes),
        root,
        refs,
    }
}

/// One finished job, kept until its answer has been checked.
struct JobResult {
    wall: f64,
    load: f64,
    run: VariantRun,
}

fn load_and_run<E: EdgeRecord>(path: &PathBuf, id: &VariantId, root: u32) -> JobResult {
    let start = Instant::now();
    let (edges, load) = timed("storage", "read_edge_list", || {
        let file = File::open(path).expect("open the graph file set-up wrote");
        read_edge_list::<E, _>(BufReader::new(file)).expect("read the graph file set-up wrote")
    });
    let (run, _) = timed("engine", "run_variant", || {
        let prepared = PreparedGraph::new(&edges);
        let params = RunParams {
            root,
            ..RunParams::default()
        };
        let started = Instant::now();
        let run = run_variant(id, &ExecCtx::new(None), &prepared, &params)
            .expect("every job names a supported variant");
        // The product reports how the call split; re-create the split
        // as child spans so self time lands on the right layer.
        let t = tracer();
        let prep_end = started + std::time::Duration::from_secs_f64(run.preprocess_seconds);
        t.record("preprocess", "prepare", started, prep_end, 0, 0);
        let algo_end = prep_end + std::time::Duration::from_secs_f64(run.algorithm_seconds);
        t.record("algo", &id.to_string(), prep_end, algo_end, 0, 0);
        run
    });
    JobResult {
        wall: start.elapsed().as_secs_f64(),
        load,
        run,
    }
}

fn answer_is_right(output: &VariantOutput, refs: &References) -> bool {
    match output {
        VariantOutput::Bfs(r) => r.level == refs.levels,
        VariantOutput::Wcc(r) => r.label == refs.labels,
        VariantOutput::Sssp(r) => {
            r.dist.len() == refs.dists.len()
                && r.dist
                    .iter()
                    .zip(&refs.dists)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }
        VariantOutput::Pagerank(r) => relative_l1(&r.ranks, &refs.ranks) <= RANK_TOLERANCE,
        _ => false,
    }
}

/// Exact step counts of one job's iteration log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Steps {
    iterations: f64,
    edges_scanned: f64,
    direction_flips: f64,
    activated: f64,
}

impl Steps {
    fn add(&mut self, other: Steps) {
        self.iterations += other.iterations;
        self.edges_scanned += other.edges_scanned;
        self.direction_flips += other.direction_flips;
        self.activated += other.activated;
    }
}

fn steps_of_log(log: &[IterStat]) -> Steps {
    Steps {
        iterations: log.len() as f64,
        edges_scanned: log.iter().map(|s| s.edges_scanned as f64).sum(),
        direction_flips: log.windows(2).filter(|w| w[0].mode != w[1].mode).count() as f64,
        // Every step's frontier after the first was activated by the
        // scans of the step before it.
        activated: log.iter().skip(1).map(|s| s.frontier_size as f64).sum(),
    }
}

fn steps_of(output: &VariantOutput, num_edges: usize) -> Steps {
    match output {
        VariantOutput::Bfs(r) => steps_of_log(&r.iterations),
        VariantOutput::Wcc(r) => steps_of_log(&r.iterations),
        VariantOutput::Sssp(r) => steps_of_log(&r.iterations),
        // Power iteration touches every edge every step and keeps no log.
        VariantOutput::Pagerank(r) => Steps {
            iterations: r.iterations as f64,
            edges_scanned: (r.iterations * num_edges) as f64,
            ..Steps::default()
        },
        _ => Steps::default(),
    }
}

/// Whether a job's step counts repeat exactly run to run. BFS levels
/// and PageRank sweeps are schedule-independent; push SSSP and WCC
/// relax asynchronously, so how many rounds they take depends on thread
/// timing.
fn counts_repeat(algo: Algo) -> bool {
    matches!(algo, Algo::Bfs | Algo::Pagerank)
}

/// Per-pass samples, one entry per timed pass.
#[derive(Default)]
struct Samples {
    pass_wall: Vec<f64>,
    algo: Vec<f64>,
    prep: Vec<f64>,
    load: Vec<f64>,
    job_wall: Vec<Vec<f64>>,
    job_algo: Vec<Vec<f64>>,
    exact: Vec<Steps>,
    racy: Vec<Steps>,
    traced_pass: Vec<bool>,
}

fn run_pass(shape: Shape, inputs: &Inputs, samples: Option<&mut Samples>, report: &mut Report) {
    let ids: Vec<VariantId> = shape
        .jobs()
        .iter()
        .map(|j| j.parse().expect("job names parse as variants"))
        .collect();
    let pass_start = Instant::now();
    let (results, _) = timed("bench", "pass", || {
        ids.iter()
            .map(|id| {
                timed("bench", "job", || {
                    if id.algo.needs_weights() {
                        load_and_run::<WEdge>(&inputs.weighted.0, id, inputs.root)
                    } else {
                        load_and_run::<Edge>(&inputs.unweighted.0, id, inputs.root)
                    }
                })
                .0
            })
            .collect::<Vec<JobResult>>()
    });
    let pass_wall = pass_start.elapsed().as_secs_f64();

    // Outside the timed region: check every answer, then reduce.
    for r in &results {
        report.check(answer_is_right(&r.run.output, &inputs.refs));
    }
    let Some(s) = samples else { return };
    s.pass_wall.push(pass_wall);
    s.traced_pass.push(tracer().enabled());
    s.algo
        .push(results.iter().map(|r| r.run.algorithm_seconds).sum());
    s.prep
        .push(results.iter().map(|r| r.run.preprocess_seconds).sum());
    s.load.push(results.iter().map(|r| r.load).sum());
    if s.job_algo.is_empty() {
        s.job_algo = vec![Vec::new(); ids.len()];
        s.job_wall = vec![Vec::new(); ids.len()];
    }
    for (per_job, r) in s.job_wall.iter_mut().zip(&results) {
        per_job.push(r.wall);
    }
    let (mut exact, mut racy) = (Steps::default(), Steps::default());
    for ((id, r), per_job) in ids.iter().zip(&results).zip(s.job_algo.iter_mut()) {
        per_job.push(r.run.algorithm_seconds);
        let steps = steps_of(&r.run.output, inputs.graph.num_edges());
        if counts_repeat(id.algo) {
            exact.add(steps);
        } else {
            racy.add(steps);
        }
    }
    s.exact.push(exact);
    s.racy.push(racy);
}

/// Runs one batch workload.
pub fn run(shape: Shape, cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let scratch = Scratch::new(&cfg.out_dir).expect("create the scratch directory");

    let inputs = repeat_set_up(cfg, &mut report, || set_up(shape, cfg, &scratch));

    // One warm-up pass: page cache, pool threads, allocator.
    run_pass(shape, &inputs, None, &mut report);

    let mut samples = Samples::default();
    let mut pool = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut pass = 0usize;
    while pass < MIN_PASSES || Instant::now() < deadline {
        // A traced run alternates instrumented and plain passes, so the
        // overhead of tracing is measured inside the run that pays it.
        let instrumented = cfg.traced && pass.is_multiple_of(2);
        tracer().set_enabled(instrumented);
        if instrumented {
            egraph_parallel::telemetry::enable();
        }
        run_pass(shape, &inputs, Some(&mut samples), &mut report);
        if instrumented {
            pool.push(egraph_parallel::telemetry::snapshot());
            egraph_parallel::telemetry::disable();
        }
        pass += 1;
    }
    tracer().set_enabled(false);
    report.record_peak_rss();

    let passes = samples.pass_wall.len();
    let e2e = median(&samples.pass_wall);
    let algo = median(&samples.algo);
    // The largest structure a job holds: the weighted edge array it
    // read; every layout built from it is of the same order.
    report.working_set_bytes = inputs.weighted.1;
    report.set("e2e_s", e2e, passes);
    report.set("algo_s", algo, passes);
    let jobs = shape.jobs().len() as f64;
    report.set("ops_per_s", jobs / e2e, passes);
    // A pass is five *kinds* of job, so its latency distribution is five
    // clusters: a percentile taken over the pooled samples would hop
    // between clusters with the pass count. Reduce each kind to its
    // median first; the typical job is then the middle kind and the
    // tail is the slowest kind.
    let mut per_kind: Vec<f64> = samples.job_wall.iter().map(|k| median(k) * 1e3).collect();
    per_kind.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    report.set_noted(
        "lat_p50_ms",
        per_kind[per_kind.len() / 2],
        passes * per_kind.len(),
        "median job kind (per-kind medians over passes)".to_string(),
    );
    report.set_noted(
        "lat_p95_ms",
        per_kind[per_kind.len() - 1],
        passes * per_kind.len(),
        "slowest of the five job kinds (its median over passes)".to_string(),
    );

    if cfg.traced {
        layer_metrics(shape, cfg, &inputs, &samples, &pool, &mut report);
    }
    report
}

/// Fewest timed passes whatever the time budget (an even count, so a
/// traced run has as many passes with spans as without).
const MIN_PASSES: usize = 4;

/// How many times each layer probe runs (the median is reported).
const PROBE_REPS: usize = 3;

/// The per-layer numbers of a traced run: what the passes already
/// measured, plus direct calls into `sort`, `preprocess` and `layout`
/// made outside the timed passes.
fn layer_metrics(
    shape: Shape,
    cfg: &RunCfg,
    inputs: &Inputs,
    s: &Samples,
    pool: &[egraph_parallel::telemetry::PoolSnapshot],
    report: &mut Report,
) {
    let passes = s.pass_wall.len();
    let graph = &inputs.graph;
    let (nv, ne) = (graph.num_vertices(), graph.num_edges());

    // storage
    let bytes_per_pass: u64 = shape
        .jobs()
        .iter()
        .map(|j| {
            let id: VariantId = j.parse().expect("job names parse as variants");
            if id.algo.needs_weights() {
                inputs.weighted.1
            } else {
                inputs.unweighted.1
            }
        })
        .sum();
    let load = median(&s.load);
    report.set("storage.load_s", load, passes);
    report.set("storage.bytes_read", bytes_per_pass as f64, 1);
    report.set(
        "storage.load_mb_per_s",
        bytes_per_pass as f64 / 1e6 / load,
        passes,
    );

    // sort: both strategies on the workload's own source keys.
    tracer().set_enabled(true);
    let key = |e: &Edge| u64::from(e.src());
    let mut radix = Vec::new();
    let mut count = Vec::new();
    for _ in 0..PROBE_REPS {
        let mut copy = graph.edges().to_vec();
        let (_, secs) = timed("sort", "radix_sort_by_key", || {
            egraph_sort::radix_sort_by_key(&mut copy, egraph_sort::key_bits(nv), key)
        });
        radix.push(ne as f64 / 1e6 / secs);
        let (sorted, secs) = timed("sort", "count_sort_by_key", || {
            egraph_sort::count_sort_by_key(graph.edges(), nv, key)
        });
        std::hint::black_box(sorted);
        count.push(ne as f64 / 1e6 / secs);
    }
    report.set("sort.radix_medges_per_s", median(&radix), PROBE_REPS);
    report.set("sort.count_medges_per_s", median(&count), PROBE_REPS);

    // preprocess + layout: each builder once per repetition, with the
    // exact resident size of what it built.
    let mut secs: [Vec<f64>; 4] = Default::default();
    let mut bytes = [0u64; 4];
    for _ in 0..PROBE_REPS {
        let (adj, t) = timed("preprocess", "CsrBuilder(out)", || {
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(graph)
        });
        secs[0].push(t);
        drop(adj);
        let (adj, t) = timed("preprocess", "CsrBuilder(both)", || {
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(graph)
        });
        secs[1].push(t);
        bytes[0] = timed("layout", "adj.resident_bytes", || adj.resident_bytes()).0;
        drop(adj);
        let (grid, t) = timed("preprocess", "GridBuilder", || {
            GridBuilder::new(Strategy::RadixSort)
                .side(default_grid_side(nv))
                .build(graph)
        });
        secs[2].push(t);
        bytes[1] = timed("layout", "grid.resident_bytes", || grid.resident_bytes()).0;
        drop(grid);
        let (ccsr, t) = timed("preprocess", "CcsrBuilder(both)", || {
            CcsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(graph)
        });
        secs[3].push(t);
        bytes[2] = timed("layout", "ccsr.resident_bytes", || ccsr.resident_bytes()).0;
    }
    tracer().set_enabled(false);
    report.set("preprocess.csr_out_s", median(&secs[0]), PROBE_REPS);
    report.set("preprocess.csr_both_s", median(&secs[1]), PROBE_REPS);
    report.set("preprocess.grid_s", median(&secs[2]), PROBE_REPS);
    report.set("preprocess.ccsr_s", median(&secs[3]), PROBE_REPS);
    let prep = median(&s.prep);
    report.set("preprocess.prep_s", prep, passes);
    report.set("preprocess.share", prep / median(&s.pass_wall), passes);
    report.set("layout.adj_bytes", bytes[0] as f64, 1);
    report.set("layout.grid_bytes", bytes[1] as f64, 1);
    report.set("layout.ccsr_bytes", bytes[2] as f64, 1);
    report.set("layout.ccsr_ratio", bytes[2] as f64 / bytes[0] as f64, 1);

    // algo: each job's own algorithm seconds.
    for (job, per_pass) in shape.jobs().iter().zip(&s.job_algo) {
        let name = format!("algo.{}.s", job.replace('/', "_"));
        report.set(&name, median(per_pass), per_pass.len());
    }

    // engine: exact counts from the deterministic jobs, the racy jobs'
    // counts as a median with their spread.
    let exact = s.exact[0];
    if s.exact.iter().any(|e| *e != exact) {
        report
            .notes
            .push("engine.* exact counts differed between passes of one run".to_string());
    }
    report.set("engine.iterations", exact.iterations, 1);
    report.set("engine.edges_scanned", exact.edges_scanned, 1);
    report.set("engine.direction_flips", exact.direction_flips, 1);
    let racy_iters: Vec<f64> = s.racy.iter().map(|r| r.iterations).collect();
    let racy_scans: Vec<f64> = s.racy.iter().map(|r| r.edges_scanned).collect();
    let spread = |xs: &[f64]| {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(0.0, f64::max);
        format!("racy push sssp/wcc: min {lo} max {hi} over passes")
    };
    report.set_noted(
        "engine.racy_iterations",
        median(&racy_iters),
        passes,
        spread(&racy_iters),
    );
    report.set_noted(
        "engine.racy_edges_scanned",
        median(&racy_scans),
        passes,
        spread(&racy_scans),
    );
    let all_iters = exact.iterations + median(&racy_iters);
    report.set(
        "engine.us_per_iteration",
        median(&s.algo) * 1e6 / all_iters,
        passes,
    );
    let activated =
        exact.activated + median(&s.racy.iter().map(|r| r.activated).collect::<Vec<_>>());
    // PageRank scans activate nothing; leave its sweeps out of the ratio.
    let pagerank_scans: f64 = shape
        .jobs()
        .iter()
        .filter(|j| j.starts_with("pagerank"))
        .count() as f64
        * (RunParams::default().pagerank.iterations * ne) as f64;
    let traversal_scans = exact.edges_scanned - pagerank_scans + median(&racy_scans);
    report.set(
        "engine.discovered_per_scan",
        activated / traversal_scans.max(1.0),
        passes,
    );

    // parallel: pool counters over the instrumented passes.
    let on_wall: f64 = (0..passes)
        .filter(|&i| s.traced_pass[i])
        .map(|i| s.pass_wall[i])
        .sum();
    let mut busy = vec![0.0f64; cfg.threads];
    for snap in pool {
        for (slot, b) in busy.iter_mut().zip(&snap.busy_seconds) {
            *slot += b;
        }
    }
    let busy_total: f64 = busy.iter().sum();
    let busy_max = busy.iter().cloned().fold(0.0, f64::max);
    let n = pool.len().max(1);
    report.set(
        "parallel.busy_frac",
        busy_total / (on_wall * cfg.threads as f64),
        pool.len(),
    );
    report.set(
        "parallel.imbalance",
        busy_max * cfg.threads as f64 / busy_total.max(f64::MIN_POSITIVE),
        pool.len(),
    );
    let per_pass = |f: fn(&egraph_parallel::telemetry::PoolSnapshot) -> u64| {
        pool.iter().map(f).sum::<u64>() as f64 / n as f64
    };
    report.set("parallel.steals", per_pass(|p| p.steals), pool.len());
    report.set("parallel.regions", per_pass(|p| p.regions), pool.len());

    // trace: passes with spans on vs the interleaved passes with spans off.
    trace::report_overhead(
        report,
        s.pass_wall
            .iter()
            .copied()
            .zip(s.traced_pass.iter().copied()),
    );
}
