//! `egraph-benchmark`: the repo's standing end-to-end + per-layer
//! benchmark. See `README.md` next to this crate for how to run it and
//! how to read it, and `BENCHMARK.json` at the repo root for the
//! contract the driver checks.

pub mod batch;
pub mod cli;
pub mod env;
pub mod inputs;
pub mod loadgen;
pub mod reference;
pub mod report;
pub mod rng;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod update;

use std::path::PathBuf;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Sizes and rates (`spec::FULL` or `spec::QUICK`).
    pub sizes: spec::Sizes,
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Whether `sizes` is the smoke-test scale.
    pub quick: bool,
    /// Whether spans are recorded (per-layer run) or not (end-to-end run).
    pub traced: bool,
    /// Worker threads of the global pool and of every serve engine.
    pub threads: usize,
    /// The benchmark's output directory (result files, scratch).
    pub out_dir: PathBuf,
}

/// Runs a workload's set-up `sizes.setup_reps` times — each product
/// dropped before the next is made — and records the median of the
/// repetitions as `setup_s`. Spans are recorded (when tracing) for the
/// last repetition only; tracing is off when this returns.
pub fn repeat_set_up<T>(
    cfg: &RunCfg,
    report: &mut report::Report,
    mut set_up: impl FnMut() -> T,
) -> T {
    let reps = cfg.sizes.setup_reps.max(1);
    let mut seconds = Vec::with_capacity(reps);
    let mut made = None;
    for rep in 0..reps {
        drop(made.take());
        trace::tracer().set_enabled(cfg.traced && rep + 1 == reps);
        let (product, secs) = trace::timed("bench", "setup", &mut set_up);
        seconds.push(secs);
        made = Some(product);
    }
    trace::tracer().set_enabled(false);
    report.set("setup_s", stats::median(&seconds), reps);
    made.expect("set-up ran at least once")
}

/// Runs the named workload; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Option<report::Report> {
    match name {
        "batch_powerlaw" => Some(batch::run(batch::Shape::Powerlaw, cfg)),
        "batch_road" => Some(batch::run(batch::Shape::Road, cfg)),
        "serve_mixed" => Some(serve::run(cfg)),
        "update_stream" => Some(update::run(cfg)),
        _ => None,
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
