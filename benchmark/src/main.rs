//! `egraph-benchmark`: see `README.md` in this directory.
//!
//! With `--trace 0|1` this process runs one workload once and ends with
//! the driver's result line. Without it, it runs the suite: each
//! selected workload in its own child process, untraced then traced.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use egraph_benchmark::cli::{Args, USAGE};
use egraph_benchmark::env::Environment;
use egraph_benchmark::report::Report;
use egraph_benchmark::trace::{layer_self_seconds, tracer, write_chrome_trace};
use egraph_benchmark::{run_workload, spec, suite, RunCfg};
use egraph_core::telemetry::json;

/// The benchmark's own directory: `run.sh` exports it; the default
/// suits a run from the repo root.
fn bench_dir() -> PathBuf {
    std::env::var_os("EGRAPH_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

fn write_result_file(
    path: &Path,
    workload: &str,
    cfg: &RunCfg,
    environment: &Environment,
    report: &Report,
    layers: &[(&'static str, f64, usize)],
) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "{{")?;
    writeln!(w, "  \"workload\": {},", json::string(workload))?;
    writeln!(w, "  \"traced\": {},", cfg.traced)?;
    writeln!(
        w,
        "  \"environment\": {},",
        environment.to_json(cfg, report.working_set_bytes)
    )?;
    writeln!(w, "  \"attempted\": {},", report.attempted)?;
    writeln!(w, "  \"failed\": {},", report.failed)?;
    let notes: Vec<String> = report.notes.iter().map(|n| json::string(n)).collect();
    writeln!(w, "  \"notes\": [{}],", notes.join(", "))?;
    let layers: Vec<String> = layers
        .iter()
        .map(|(layer, secs, spans)| {
            format!(
                "{}: {{\"self_s\": {secs}, \"spans\": {spans}}}",
                json::string(layer)
            )
        })
        .collect();
    writeln!(w, "  \"layer_self_time\": {{{}}},", layers.join(", "))?;
    writeln!(w, "  \"metrics\": {}", report.metrics_json())?;
    writeln!(w, "}}")?;
    w.flush()
}

fn run_once(args: &Args, workload: &str, traced: bool) -> ExitCode {
    let threads = spec::threads();
    // The product sizes its global pool from this variable on first use;
    // nothing has touched the pool yet and no other thread exists.
    std::env::set_var("EGRAPH_THREADS", threads.to_string());
    let out_dir = bench_dir().join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let cfg = RunCfg {
        sizes: if args.quick { spec::QUICK } else { spec::FULL },
        quick: args.quick,
        seed: args.seed,
        seconds: args.seconds,
        traced,
        threads,
        out_dir: out_dir.clone(),
    };
    let environment = Environment::capture(threads);
    let report =
        run_workload(workload, &cfg).expect("the command line only admits known workloads");

    let spans = tracer().drain();
    let layers = layer_self_seconds(&spans);
    let suffix = if traced { ".traced" } else { "" };
    let result_path = out_dir.join(format!("{workload}{suffix}.json"));
    let mut written =
        write_result_file(&result_path, workload, &cfg, &environment, &report, &layers);
    if traced && written.is_ok() {
        let trace_path = out_dir.join(format!("{workload}.trace.json"));
        written =
            File::create(trace_path).and_then(|f| write_chrome_trace(BufWriter::new(f), &spans));
    }
    if let Err(e) = written {
        eprintln!(
            "cannot write the result files under {}: {e}",
            out_dir.display()
        );
        return ExitCode::from(2);
    }

    println!(
        "{workload} ({}) -> {}",
        if traced {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        },
        result_path.display()
    );
    print!("{}", environment.describe(&cfg, report.working_set_bytes));
    print!("{}", report.human_table(traced));
    if traced {
        println!("{:<14} {:>14} {:>8}", "layer", "self seconds", "spans");
        for (layer, secs, count) in &layers {
            println!("{layer:<14} {secs:>14.6} {count:>8}");
        }
    }
    println!("{}", report.result_line(traced));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (Some(traced), Some(workload)) = (args.trace, args.workload.as_deref()) {
        return run_once(&args, workload, traced);
    }
    let outcome = if args.selfcheck {
        suite::run_selfcheck(&args)
    } else {
        suite::run_suite(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
