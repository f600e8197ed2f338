//! End-to-end checks of the harness itself: `BENCHMARK.json` says what
//! `spec.rs` says, and every workload runs under `--quick` in both
//! modes, answers correctly and prints each metric of its table once.

use std::path::{Path, PathBuf};
use std::process::Command;

use egraph_benchmark::report::json_field;
use egraph_benchmark::spec::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use egraph_benchmark::suite::parse_result_line;
use egraph_core::telemetry::json::{self, Value};

fn field<'a>(doc: &'a Value, name: &str) -> &'a Value {
    json_field(doc, name).unwrap_or_else(|| panic!("missing field {name}"))
}

fn keys(doc: &Value) -> Vec<&str> {
    doc.as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_states_what_the_spec_states() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repo root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        field(&doc, "run_seconds").as_number(),
        Some(spec::DEFAULT_SECONDS)
    );
    let strings = |v: &Value| -> Vec<String> {
        v.as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        strings(field(&doc, "command")),
        ["bash", "benchmark/run.sh"]
    );
    assert_eq!(strings(field(&doc, "paths")), ["benchmark"]);

    let workloads = field(&doc, "workloads").as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS.iter()) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(field(entry, "name").as_str(), Some(*name));
        assert_eq!(field(entry, "why").as_str(), Some(*why));
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let check_table = |entries: &[Value], table: &[MetricDef], bounded: bool| {
        assert_eq!(entries.len(), table.len());
        for (entry, def) in entries.iter().zip(table) {
            let expected: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            assert_eq!(keys(entry), expected, "{}", def.name);
            assert_eq!(field(entry, "name").as_str(), Some(def.name));
            assert_eq!(field(entry, "unit").as_str(), Some(def.unit));
            assert_eq!(field(entry, "better").as_str(), Some(def.better.name()));
            if bounded {
                let bound = field(entry, "bound").as_number().unwrap();
                assert_eq!(Some(bound), def.bound, "{}", def.name);
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
    };
    check_table(
        field(&doc, "end_to_end").as_array().unwrap(),
        &END_TO_END,
        true,
    );
    check_table(
        field(&doc, "per_layer").as_array().unwrap(),
        &PER_LAYER,
        false,
    );

    // The contract's own demands on the tables.
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|d| d.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|d| d.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "metric names are unique"
    );
}

/// Runs one workload once under `--quick` and checks the whole contract
/// of a run: exit code, result line, correctness, metric names.
fn quick_run(workload: &str, traced: bool) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{workload}.{}",
        if traced { "traced" } else { "untraced" }
    ));
    std::fs::create_dir_all(&out_dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_egraph-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--quick",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("EGRAPH_BENCH_DIR", &out_dir)
        .output()
        .expect("start the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} failed:\n{stdout}\n{stderr}"
    );

    let lines: Vec<&str> = stdout.lines().collect();
    let result = parse_result_line(lines.last().unwrap()).expect("the last line is the result");
    assert!(result.correct && result.failed == 0, "{workload}: {stdout}");
    assert!(result.attempted >= 1);

    let table: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let printed: Vec<&str> = result.metrics.keys().map(String::as_str).collect();
    let mut wanted: Vec<&str> = table.iter().map(|d| d.name).collect();
    wanted.sort_unstable();
    assert_eq!(printed, wanted, "{workload}: result line metrics");
    for def in table {
        let rows = lines[..lines.len() - 1]
            .iter()
            .filter(|l| l.split_whitespace().next() == Some(def.name))
            .count();
        assert_eq!(rows, 1, "{workload}: {} printed {rows} times", def.name);
    }
    if !traced {
        for def in table {
            assert!(
                result.metrics[def.name] > 0.0,
                "{workload}: {} is never 0",
                def.name
            );
        }
    }

    // Everything a workload records is in one of the two tables: no
    // metric is measured and then dropped on the floor.
    let file = out_dir.join("out").join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ));
    let doc =
        json::parse(&std::fs::read_to_string(&file).unwrap()).expect("the result file is JSON");
    for (name, _) in field(&doc, "metrics").as_object().unwrap() {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|d| d.name == name),
            "{workload} records {name}, which no table lists"
        );
    }
    let environment = field(&doc, "environment");
    for key in [
        "commit",
        "seed",
        "nproc",
        "threads",
        "rustc",
        "llc_bytes",
        "working_set_bytes",
        "clock_resolution_ns",
    ] {
        field(environment, key);
    }
    if traced {
        let trace =
            std::fs::read_to_string(out_dir.join("out").join(format!("{workload}.trace.json")))
                .unwrap();
        json::parse(&trace).expect("the Chrome trace is JSON");
    }
}

#[test]
fn batch_powerlaw_quick() {
    quick_run("batch_powerlaw", false);
    quick_run("batch_powerlaw", true);
}

#[test]
fn batch_road_quick() {
    quick_run("batch_road", false);
    quick_run("batch_road", true);
}

#[test]
fn serve_mixed_quick() {
    quick_run("serve_mixed", false);
    quick_run("serve_mixed", true);
}

#[test]
fn update_stream_quick() {
    quick_run("update_stream", false);
    quick_run("update_stream", true);
}

#[test]
fn a_bad_command_line_exits_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_egraph-benchmark"))
        .args(["--workload", "no_such_workload", "--trace", "0"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
