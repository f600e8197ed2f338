//! Suite mode: every workload in its own process, untraced then traced,
//! and the A/A self-check built on it.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use egraph_core::telemetry::json::{self, Value};

use crate::cli::Args;
use crate::report::{json_field as field, number};
use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};

/// What one child run printed on its result line.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// `correct` of the result line.
    pub correct: bool,
    /// `attempted` of the result line.
    pub attempted: u64,
    /// `failed` of the result line.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a driver result line.
pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = json::parse(line)?;
    let number_of = |name: &str| {
        field(&doc, name)
            .and_then(Value::as_number)
            .ok_or_else(|| format!("result line lacks {name}"))
    };
    let metrics = field(&doc, "metrics")
        .and_then(Value::as_object)
        .ok_or("result line lacks metrics")?
        .iter()
        .map(|(name, m)| {
            field(m, "value")
                .and_then(Value::as_number)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} lacks a value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: field(&doc, "correct") == Some(&Value::Bool(true)),
        attempted: number_of("attempted")? as u64,
        failed: number_of("failed")? as u64,
        metrics,
    })
}

/// Runs one workload in a child process of this executable and returns
/// its parsed result line; the child's report is echoed when `echo`.
pub fn run_child(
    args: &Args,
    workload: &str,
    seed: u64,
    traced: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if echo {
        for line in &lines {
            println!("{line}");
        }
    }
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    parse_result_line(last)
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// Runs the selected workloads untraced then traced and prints every
/// metric. Returns whether every run was correct.
pub fn run_suite(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut summary: Vec<(&str, ChildResult)> = Vec::new();
    for workload in selected(args) {
        println!("==== {workload}: untraced run (end-to-end metrics) ====");
        let untraced = run_child(args, workload, args.seed, false, true)?;
        println!("==== {workload}: traced run (per-layer metrics) ====");
        let traced = run_child(args, workload, args.seed, true, true)?;
        all_correct &= untraced.correct && traced.correct;
        summary.push((workload, untraced));
    }
    println!("==== summary: end-to-end metrics by workload ====");
    print!("{:<14}", "metric");
    for (workload, _) in &summary {
        print!(" {workload:>20}");
    }
    println!(" {:>6} {:>7}", "unit", "bound");
    for def in END_TO_END.iter() {
        print!("{:<14}", def.name);
        for (_, result) in &summary {
            print!(
                " {:>20}",
                number(result.metrics.get(def.name).copied().unwrap_or(0.0))
            );
        }
        println!(
            " {:>6} {:>7}",
            def.unit,
            def.bound.map_or(String::new(), |b| format!("{b:.2}"))
        );
    }
    print!("{:<14}", "fail_frac");
    for (_, result) in &summary {
        print!(
            " {:>20}",
            number(result.failed as f64 / result.attempted.max(1) as f64)
        );
    }
    println!(" {:>6} {:>7}", "ratio", "0");
    Ok(all_correct)
}

/// Relative disagreement of two measurements of one metric.
fn disagreement(a: f64, b: f64) -> f64 {
    let mean = (a.abs() + b.abs()) / 2.0;
    if mean == 0.0 {
        0.0
    } else {
        (a - b).abs() / mean
    }
}

/// Per-layer metrics that are exact counts: they must repeat to the
/// last digit between two runs of one commit and seed. (`engine.*` here
/// covers the BFS and PageRank jobs only; the racy push SSSP/WCC counts
/// have their own metrics.)
pub fn is_exact_count(name: &str) -> bool {
    matches!(
        name,
        "engine.iterations"
            | "engine.edges_scanned"
            | "engine.direction_flips"
            | "storage.bytes_read"
    ) || (name.starts_with("layout.") && name.ends_with("_bytes"))
}

fn worse_by(def: &MetricDef, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// The A/A self-check: the suite twice on one commit and seed, plus one
/// untraced run on the next seed reported alongside. Returns whether
/// every end-to-end metric agreed within its bound and every exact
/// count repeated.
pub fn run_selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "A/A self-check: seed {} twice, seed {} alongside, {} s per run{}",
        args.seed,
        args.seed + 1,
        args.seconds,
        if args.quick { ", quick sizes" } else { "" }
    );
    for workload in selected(args) {
        println!("---- {workload} ----");
        let a = run_child(args, workload, args.seed, false, false)?;
        let b = run_child(args, workload, args.seed, false, false)?;
        let other = run_child(args, workload, args.seed + 1, false, false)?;
        let ta = run_child(args, workload, args.seed, true, false)?;
        let tb = run_child(args, workload, args.seed, true, false)?;
        for r in [&a, &b, &other, &ta, &tb] {
            if !r.correct {
                println!(
                    "FAIL {workload}: {} of {} checked operations failed",
                    r.failed, r.attempted
                );
                ok = false;
            }
        }
        println!(
            "{:<26} {:>16} {:>16} {:>8} {:>6}  {:>16} {:>8}",
            "end-to-end metric", "run A", "run B", "spread", "bound", "other seed", "vs A"
        );
        for def in END_TO_END.iter() {
            let (va, vb, vo) = (
                a.metrics[def.name],
                b.metrics[def.name],
                other.metrics[def.name],
            );
            let spread = disagreement(va, vb);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let verdict = if spread > bound {
                ok = false;
                "  FAIL: A and B disagree by more than the bound"
            } else {
                ""
            };
            println!(
                "{:<26} {:>16} {:>16} {:>8.4} {:>6.2}  {:>16} {:>+8.4}{verdict}",
                def.name,
                number(va),
                number(vb),
                spread,
                bound,
                number(vo),
                worse_by(def, va, vo),
            );
        }
        println!("{:<26} {:>16} {:>16}", "exact count", "run A", "run B");
        for def in PER_LAYER.iter().filter(|d| is_exact_count(d.name)) {
            let (va, vb) = (ta.metrics[def.name], tb.metrics[def.name]);
            let verdict = if va != vb {
                ok = false;
                "  FAIL: an exact count differs"
            } else {
                ""
            };
            println!(
                "{:<26} {:>16} {:>16}{verdict}",
                def.name,
                number(va),
                number(vb)
            );
        }
        let overhead = (
            ta.metrics["trace.overhead_frac"],
            tb.metrics["trace.overhead_frac"],
        );
        println!(
            "trace.overhead_frac        {:>16} {:>16}",
            number(overhead.0),
            number(overhead.1)
        );
    }
    println!(
        "{}",
        if ok {
            "self-check PASSED"
        } else {
            "self-check FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"e2e_s\": {\"value\": 1.5, \"unit\": \"s\"}}}";
        let r = parse_result_line(line).unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.metrics["e2e_s"], 1.5);
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line("{\"correct\": true}").is_err());
    }

    #[test]
    fn exact_counts_and_disagreement() {
        assert!(is_exact_count("layout.ccsr_bytes"));
        assert!(is_exact_count("engine.iterations"));
        assert!(!is_exact_count("engine.racy_iterations"));
        assert!(!is_exact_count("layout.ccsr_ratio"));
        assert_eq!(disagreement(1.0, 1.0), 0.0);
        assert!((disagreement(9.0, 11.0) - 0.2).abs() < 1e-12);
        let lower = END_TO_END.iter().find(|d| d.name == "e2e_s").unwrap();
        let higher = END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap();
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
