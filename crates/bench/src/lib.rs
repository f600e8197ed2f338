//! The experiment harness: shared plumbing for the per-figure/table
//! binaries in `src/bin/` (see `DESIGN.md` §5 for the experiment
//! index).
//!
//! Every binary follows the same shape: build the scaled dataset, list
//! the configurations the paper compares as (label, [`VariantId`],
//! [`RunParams`]) rows, time each with [`measure`] — load, fresh
//! pre-processing and the algorithm, through the same [`run_variant`]
//! the CLI and the standing benchmark call — print the same rows/series
//! the paper reports (with the paper's own numbers alongside for shape
//! comparison), and drop a CSV under `bench_results/`. The binaries
//! whose axis is not a variant (sort strategies, the SSSP bucket width,
//! ALS, the update stream, the serve tier) time their own code.
//!
//! # Models
//!
//! Three pieces of the paper's hardware are modelled here, beside the
//! experiments that use them; no product crate links any of them:
//!
//! * [`llc`] (fed by [`trace`]'s access replays) — the LLC miss
//!   counters of Tables 2 and 4 and Fig. 5;
//! * [`numa`] — the 2- and 4-node machines of Figs. 9 and 10;
//! * [`loading`] — the SSD and HDD of Table 3.
//!
//! # Scaling
//!
//! The paper's machines had 32 cores and 256 GB of RAM; experiments
//! default to RMAT-16-sized inputs and accept `--scale N` (or the
//! `EGRAPH_SCALE` environment variable) to grow them. Relative
//! comparisons — who wins, and by roughly what factor — are
//! scale-stable (the paper's own Fig. 2 shows linear scaling), which is
//! what `EXPERIMENTS.md` records.

pub mod graphs;
pub mod llc;
pub mod loading;
pub mod numa;
pub mod table;
pub mod trace;

use std::path::PathBuf;

use egraph_core::exec::ExecCtx;
use egraph_core::telemetry::RunTrace;
use egraph_core::types::EdgeRecord;
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId, VariantRun};

pub use table::ResultTable;

/// Shared context of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// RMAT scale used for synthetic datasets (vertices = 2^scale).
    pub scale: u32,
    /// Where CSV outputs are written.
    pub out_dir: PathBuf,
    /// Where a machine-readable [`RunTrace`] is written, if requested
    /// with `--trace-out FILE` (same document the CLI's `run
    /// --trace-out` emits).
    pub trace_out: Option<PathBuf>,
    /// Live `/metrics` endpoint, if requested with `--metrics-addr
    /// HOST:PORT`. Held so the accept thread survives for the whole
    /// experiment; the last clone dropping shuts it down.
    pub metrics: Option<std::sync::Arc<egraph_metrics::MetricsServer>>,
}

impl ExperimentCtx {
    /// Builds a context from `--scale N` / `--out DIR` /
    /// `--trace-out FILE` / `--metrics-addr HOST:PORT` command-line
    /// arguments and the `EGRAPH_SCALE` environment variable.
    pub fn from_args() -> Self {
        let mut scale: u32 = std::env::var("EGRAPH_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(16);
        let mut out_dir = PathBuf::from("bench_results");
        let mut trace_out = None;
        let mut metrics_addr: Option<String> = None;
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    scale = args[i + 1].parse().unwrap_or(scale);
                    i += 2;
                }
                "--out" if i + 1 < args.len() => {
                    out_dir = PathBuf::from(&args[i + 1]);
                    i += 2;
                }
                "--trace-out" if i + 1 < args.len() => {
                    trace_out = Some(PathBuf::from(&args[i + 1]));
                    i += 2;
                }
                "--metrics-addr" if i + 1 < args.len() => {
                    metrics_addr = Some(args[i + 1].clone());
                    i += 2;
                }
                other => {
                    eprintln!("ignoring unknown argument: {other}");
                    i += 1;
                }
            }
        }
        let metrics = metrics_addr.map(|addr| {
            egraph_metrics::register_pool_metrics(egraph_parallel::global_pool());
            egraph_metrics::register_alloc_metrics();
            egraph_storage::counters::register_metrics();
            egraph_parallel::global_pool().counters().enable();
            egraph_storage::counters::enable();
            // A typed BindError names the offending address; exit
            // cleanly instead of unwinding a panic through main.
            let server = egraph_metrics::serve(addr.as_str()).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            println!("serving metrics on http://{}/metrics", server.addr());
            std::sync::Arc::new(server)
        });
        Self {
            scale,
            out_dir,
            trace_out,
            metrics,
        }
    }

    /// Whether this run should collect telemetry for [`Self::save_trace`].
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some()
    }

    /// Writes a run trace as JSON to the `--trace-out` path (no-op when
    /// the flag was not given). I/O failures are reported, not fatal.
    pub fn save_trace(&self, trace: &RunTrace) {
        let Some(path) = &self.trace_out else { return };
        match std::fs::write(path, trace.to_json()) {
            Ok(()) => println!("\nwrote trace to {}", path.display()),
            Err(e) => eprintln!("\ncould not write trace: {e}"),
        }
    }

    /// Prints the experiment banner.
    pub fn banner(&self, experiment: &str, paper_artifact: &str) {
        println!("=== {experiment} — reproducing {paper_artifact} ===");
        println!(
            "scale: RMAT-{} ({} vertices); threads: {}",
            self.scale,
            1u64 << self.scale,
            egraph_parallel::current_num_threads()
        );
        println!();
    }

    /// Saves a table as CSV under the output directory; prints the
    /// path. I/O failures are reported, not fatal (the console output
    /// already has the data).
    pub fn save(&self, table: &ResultTable) {
        match table.save_csv(&self.out_dir) {
            Ok(path) => println!("\nsaved: {}", path.display()),
            Err(e) => eprintln!("\ncould not save CSV: {e}"),
        }
    }
}

/// Repetitions used by timing-sensitive experiments (override with
/// `EGRAPH_REPS`); the minimum of N runs filters the scheduling noise
/// of shared hosts.
pub fn reps() -> usize {
    std::env::var("EGRAPH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// Runs `f` (which returns a value and its wall-clock seconds) `reps`
/// times and returns the fastest run's value and time.
pub fn min_time<T>(reps: usize, mut f: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..reps.max(1) {
        let (value, secs) = f();
        let better = best.as_ref().map(|&(_, b)| secs < b).unwrap_or(true);
        if better {
            best = Some((value, secs));
        }
    }
    best.expect("reps >= 1")
}

/// Runs variant `id` `reps` times under `ctx`, each time on a fresh
/// graph from `prepare`, so every repetition pays its own
/// pre-processing. Returns the run with the fastest algorithm, carrying
/// the minimum pre-processing seconds of all repetitions: the two
/// phases' best-of-N, the way the figures report them.
///
/// # Panics
///
/// If the variant is not supported on the graph — every figure asks
/// for combinations of the support matrix.
pub fn measure<'g, E: EdgeRecord>(
    ctx: &ExecCtx<'_>,
    prepare: impl Fn() -> PreparedGraph<'g, E>,
    id: &VariantId,
    params: &RunParams<'_>,
    reps: usize,
) -> VariantRun {
    let mut preprocess = f64::INFINITY;
    let (mut run, _) = min_time(reps, || {
        let graph = prepare();
        let run = run_variant(id, ctx, &graph, params).unwrap_or_else(|e| panic!("{id}: {e}"));
        preprocess = preprocess.min(run.preprocess_seconds);
        let seconds = run.algorithm_seconds;
        (run, seconds)
    });
    run.preprocess_seconds = preprocess;
    run
}

/// A run's end-to-end seconds: pre-processing plus algorithm.
pub fn total_seconds(run: &VariantRun) -> f64 {
    run.preprocess_seconds + run.algorithm_seconds
}

/// A table row: the `labels`, then the run's pre-processing, algorithm
/// and end-to-end seconds.
pub fn phase_row(labels: &[&str], run: &VariantRun) -> Vec<String> {
    let times = [
        run.preprocess_seconds,
        run.algorithm_seconds,
        total_seconds(run),
    ];
    let labels = labels.iter().map(|label| label.to_string());
    labels.chain(times.map(fmt_secs)).collect()
}

/// Formats seconds with sensible precision for table cells.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

/// Formats a ratio like "3.3x".
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.1}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(f: f64) -> String {
    format!("{:.0}%", f * 100.0)
}
