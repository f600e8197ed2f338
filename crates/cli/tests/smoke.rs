//! In-process smoke tests of every CLI subcommand.

use egraph_cli::commands::dispatch;

fn argv(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("egraph-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn generate_info_run_roundtrip() {
    let path = tmp("smoke_rmat.egr");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &path, "--seed", "5",
    ]))
    .expect("generate");
    dispatch(&argv(&["info", &path])).expect("info");
    dispatch(&argv(&[
        "run", "bfs", &path, "--layout", "adj", "--flow", "push",
    ]))
    .expect("bfs adj push");
    dispatch(&argv(&[
        "run",
        "bfs",
        &path,
        "--layout",
        "adj",
        "--flow",
        "push-pull",
    ]))
    .expect("bfs push-pull");
    dispatch(&argv(&["run", "bfs", &path, "--layout", "edge"])).expect("bfs edge");
    dispatch(&argv(&[
        "run", "bfs", &path, "--layout", "grid", "--side", "4",
    ]))
    .expect("bfs grid");
    dispatch(&argv(&[
        "run", "pagerank", &path, "--layout", "grid", "--flow", "pull", "--side", "4", "--iters",
        "3",
    ]))
    .expect("pagerank grid pull");
    dispatch(&argv(&["run", "wcc", &path, "--layout", "edge"])).expect("wcc edge");
}

#[test]
fn weighted_pipeline() {
    let path = tmp("smoke_weighted.egr");
    dispatch(&argv(&[
        "generate",
        "road",
        "--scale",
        "8",
        "--out",
        &path,
        "--weighted",
        "true",
    ]))
    .expect("generate weighted road");
    dispatch(&argv(&["run", "sssp", &path, "--layout", "adj"])).expect("sssp");
    dispatch(&argv(&["run", "spmv", &path, "--layout", "edge"])).expect("spmv");
}

/// A run's storage counters are read off its load: a weighted file's
/// `storage.bytes_read` is the file's length, although telling weighted
/// from unweighted reads its header twice, and
/// `storage.records_parsed` is its edge count.
#[test]
fn storage_counters_are_the_file_the_run_loaded() {
    let graph = tmp("smoke_storage_weighted.egr");
    let trace = tmp("smoke_storage_weighted.json");
    dispatch(&argv(&[
        "generate",
        "rmat",
        "--scale",
        "10",
        "--weighted",
        "true",
        "--out",
        &graph,
    ]))
    .unwrap();
    dispatch(&argv(&["run", "sssp", &graph, "--trace-out", &trace])).expect("traced sssp");
    let parsed =
        egraph_core::telemetry::RunTrace::from_json(&std::fs::read_to_string(&trace).unwrap())
            .unwrap();
    let file = std::fs::File::open(&graph).unwrap();
    let edges = egraph_storage::read_edge_list::<egraph_core::types::WEdge, _>(file)
        .unwrap()
        .num_edges();
    let length = std::fs::metadata(&graph).unwrap().len();
    assert_eq!(parsed.counters["storage.bytes_read"], length as f64);
    assert_eq!(parsed.counters["storage.records_parsed"], edges as f64);
}

#[test]
fn weightless_algorithms_run_on_a_weighted_file() {
    // The kernels are generic over the edge record: bfs, wcc and
    // pagerank ignore the weights of a weighted file and answer what
    // they answer on the unweighted file of the same seed.
    let (plain, weighted) = (tmp("smoke_w_plain.egr"), tmp("smoke_w_weighted.egr"));
    for (path, flag) in [(&plain, "false"), (&weighted, "true")] {
        dispatch(&argv(&[
            "generate",
            "rmat",
            "--scale",
            "9",
            "--seed",
            "11",
            "--out",
            path,
            "--weighted",
            flag,
        ]))
        .expect("generate");
    }
    let (parents, trace) = (tmp("smoke_w_parents.bin"), tmp("smoke_w_trace.json"));
    let rounds = |trace: &str| {
        let text = std::fs::read_to_string(trace).expect("trace file written");
        let parsed = egraph_core::telemetry::RunTrace::from_json(&text).expect("valid trace");
        parsed.iterations.len()
    };
    let answers: Vec<(usize, usize, usize)> = [&plain, &weighted]
        .into_iter()
        .map(|graph| {
            dispatch(&argv(&[
                "run",
                "bfs",
                graph,
                "--save",
                &parents,
                "--trace-out",
                &trace,
            ]))
            .expect("bfs");
            let reached = egraph_storage::read_u32_result(std::fs::File::open(&parents).unwrap())
                .expect("readable parents")
                .iter()
                .filter(|&&p| p != u32::MAX)
                .count();
            let bfs_rounds = rounds(&trace);
            dispatch(&argv(&[
                "run",
                "pagerank",
                graph,
                "--iters",
                "3",
                "--trace-out",
                &trace,
            ]))
            .expect("pagerank");
            dispatch(&argv(&["run", "wcc", graph, "--layout", "edge"])).expect("wcc");
            (reached, bfs_rounds, rounds(&trace))
        })
        .collect();
    assert!(answers[0].0 > 1 && answers[0].2 == 3, "{answers:?}");
    assert_eq!(answers[0], answers[1]);
}

#[test]
fn netflix_generator() {
    let path = tmp("smoke_netflix.egr");
    dispatch(&argv(&[
        "generate",
        "netflix",
        "--out",
        &path,
        "--users",
        "100",
        "--items",
        "20",
        "--ratings",
        "5",
    ]))
    .expect("generate netflix");
    dispatch(&argv(&["info", &path])).expect("info netflix");
}

/// `advise` reads the average degree from the file and prints a pick
/// `run` accepts; the hypothetical-graph and machine flags are gone.
#[test]
fn advise_reads_the_graph() {
    let rmat = tmp("smoke_advise_rmat.egr");
    let road = tmp("smoke_advise_road.egr");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &rmat,
    ]))
    .unwrap();
    dispatch(&argv(&[
        "generate", "road", "--scale", "10", "--out", &road,
    ]))
    .unwrap();
    for (path, want) in [(&rmat, "pagerank/grid/pull"), (&road, "pagerank/edge/push")] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_egraph"))
            .args(["advise", path, "--algo", "pagerank"])
            .output()
            .expect("run egraph advise");
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.starts_with(want), "{path}: {stdout}");
    }
    let err = dispatch(&argv(&[
        "advise",
        &rmat,
        "--algo",
        "pagerank",
        "--machine",
        "b",
    ]))
    .expect_err("--machine is gone");
    assert_eq!(err.to_string(), "unknown flags: --machine");
    let err = dispatch(&argv(&["partition", &rmat])).expect_err("partition is gone");
    assert_eq!(err.to_string(), "unknown command 'partition'");
    // ALS has no variant: the same typed error `run` gives.
    let advise = dispatch(&argv(&["advise", &rmat, "--algo", "als"])).unwrap_err();
    let run = dispatch(&argv(&["run", "als", &rmat])).unwrap_err();
    assert_eq!(advise.to_string(), run.to_string());
    assert!(
        advise.to_string().starts_with("unknown algorithm 'als'"),
        "{advise}"
    );
}

#[test]
fn errors_are_reported_not_panicked() {
    assert!(dispatch(&argv(&[])).is_err(), "no command");
    assert!(dispatch(&argv(&["frobnicate"])).is_err(), "unknown command");
    assert!(
        dispatch(&argv(&["run", "bfs", "/nonexistent.egr"])).is_err(),
        "missing file"
    );
    assert!(
        dispatch(&argv(&["generate", "rmat", "--scale", "8"])).is_err(),
        "missing --out"
    );
    let path = tmp("smoke_err.egr");
    dispatch(&argv(&["generate", "rmat", "--scale", "8", "--out", &path])).unwrap();
    assert!(
        dispatch(&argv(&["run", "sssp", &path])).is_err(),
        "sssp needs weights"
    );
    assert!(
        dispatch(&argv(&["run", "bfs", &path, "--root", "999999999"])).is_err(),
        "root out of range"
    );
    assert!(
        dispatch(&argv(&["run", "bfs", &path, "--bogus-flag", "1"])).is_err(),
        "unknown flag"
    );
}

#[test]
fn a_bad_grid_side_is_a_typed_error_not_a_panic_or_an_abort() {
    // 1 024 vertices: `--side 0` used to panic in the grid builder and
    // `--side 200000` to abort on a 320 GB offset table.
    let path = tmp("smoke_side.egr");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &path,
    ]))
    .unwrap();
    for side in ["0", "200000", "1025"] {
        for algo in ["bfs", "pagerank"] {
            let err = dispatch(&argv(&[
                "run", algo, &path, "--layout", "grid", "--side", side,
            ]))
            .expect_err(side);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!(
                    "grid side {side} out of range (expected 1..=1024)"
                )),
                "{msg}"
            );
        }
    }
    for side in ["1", "1024"] {
        dispatch(&argv(&[
            "run", "bfs", &path, "--layout", "grid", "--side", side,
        ]))
        .expect(side);
    }
    // Off the grid the flag is read and ignored, as before.
    dispatch(&argv(&["run", "bfs", &path, "--side", "0"])).expect("adj ignores --side");
}

#[test]
fn trace_out_writes_full_document() {
    let graph = tmp("smoke_trace.egr");
    let trace = tmp("smoke_trace.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&[
        "run",
        "bfs",
        &graph,
        "--flow",
        "push-pull",
        "--trace-out",
        &trace,
    ]))
    .expect("bfs with --trace-out");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    // At least one per-iteration record with the direction fields.
    for key in ["\"frontier_size\"", "\"edges_scanned\"", "\"mode\""] {
        assert!(text.contains(key), "iteration key {key} missing: {text}");
    }
    // Pool and storage counters.
    for key in [
        "engine.edges_examined",
        "pool.regions",
        "pool.busy_seconds_total",
        "storage.bytes_read",
    ] {
        assert!(text.contains(key), "counter {key} missing: {text}");
    }
    // The document round-trips through the core parser.
    let parsed = egraph_core::telemetry::RunTrace::from_json(&text).expect("valid trace json");
    assert_eq!(parsed.algorithm, "bfs");
    assert!(!parsed.iterations.is_empty(), "no iteration records");
    // The run's phases, each profiled once, plus a record of which
    // hardware counters opened ("unavailable" on restricted hosts — the
    // run must still succeed there).
    assert!(
        parsed.config.contains_key("hw_counters"),
        "missing hw_counters config entry: {text}"
    );
    let names: Vec<&str> = parsed.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["load", "preprocess", "algorithm"], "{text}");
    for p in &parsed.phases {
        assert!(p.seconds >= 0.0);
        if parsed.config["hw_counters"] != "unavailable" {
            assert!(
                !p.hardware.is_empty(),
                "counters opened but phase '{}' recorded none",
                p.name
            );
        }
    }
}

/// A trace has one encoding: asking `run` or `update` for another is
/// an unknown flag, not a second writer.
#[test]
fn trace_format_is_an_unknown_flag() {
    let graph = tmp("smoke_trace_format.egr");
    let ops = tmp("smoke_trace_format.ndjson");
    let trace = tmp("smoke_trace_format.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    std::fs::write(&ops, "{\"op\":\"insert\",\"src\":1,\"dst\":2}\n").unwrap();
    let merged = tmp("smoke_trace_format_merged.egr");
    for mut command in [
        argv(&["run", "pagerank", &graph, "--iters", "3"]),
        argv(&["update", &graph, "--deltas", &ops, "--out", &merged]),
    ] {
        command.extend(argv(&["--trace-out", &trace, "--trace-format", "csv"]));
        let err = dispatch(&command).expect_err("--trace-format is gone");
        assert_eq!(
            err.to_string(),
            "unknown flags: --trace-format",
            "{command:?}"
        );
    }
}

/// A CSV trace an older build wrote is not a trace this build reads:
/// `explain` and `trace diff` report `invalid trace`.
#[test]
fn a_csv_trace_is_an_invalid_trace() {
    let csv = tmp("smoke_old_format.csv");
    std::fs::write(
        &csv,
        "record,key,step,frontier_size,edges_scanned,seconds,mode,value\n\
         meta,schema,,,,,,egraph-trace/5\n\
         meta,algorithm,,,,,,bfs\n\
         iteration,,0,1,3,0.001,push,0.002\n\
         phase,algorithm,,,,0.125,,\n",
    )
    .unwrap();
    for command in [
        argv(&["explain", &csv]),
        argv(&["trace", "diff", &csv, &csv]),
    ] {
        let err = dispatch(&command).expect_err("a CSV trace is refused");
        assert!(
            err.to_string().starts_with("invalid trace"),
            "{command:?}: {err}"
        );
    }
}

#[test]
fn trace_diff_gates_on_regression() {
    let graph = tmp("smoke_diff.egr");
    let old_path = tmp("smoke_diff_old.json");
    let new_path = tmp("smoke_diff_new.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&["run", "bfs", &graph, "--trace-out", &old_path])).expect("baseline run");
    // Identical traces: the gate passes.
    dispatch(&argv(&["trace", "diff", &old_path, &old_path])).expect("identical traces");
    // Pin the algorithm phase above the noise floor, then slow a copy
    // down 2x: the gate must fail with the default 10% threshold.
    let mut old =
        egraph_core::telemetry::RunTrace::from_json(&std::fs::read_to_string(&old_path).unwrap())
            .unwrap();
    let set_algorithm = |trace: &mut egraph_core::telemetry::RunTrace, seconds: f64| {
        let phase = trace.phases.iter_mut().find(|p| p.name == "algorithm");
        phase.expect("algorithm phase profiled").seconds = seconds;
    };
    set_algorithm(&mut old, 1.0);
    std::fs::write(&old_path, old.to_json()).unwrap();
    let mut new = old.clone();
    set_algorithm(&mut new, 2.0);
    std::fs::write(&new_path, new.to_json()).unwrap();
    assert!(
        dispatch(&argv(&["trace", "diff", &old_path, &new_path])).is_err(),
        "2x algorithm slowdown must trip the gate"
    );
    // A looser threshold tolerates the same slowdown.
    dispatch(&argv(&[
        "trace",
        "diff",
        &old_path,
        &new_path,
        "--threshold",
        "150",
    ]))
    .expect("150% threshold tolerates a 100% slowdown");
    assert!(
        dispatch(&argv(&["trace", "frobnicate"])).is_err(),
        "unknown trace subcommand"
    );
}

#[test]
fn trace_out_emits_v5_schema_with_memory_section() {
    let graph = tmp("smoke_v5.egr");
    let trace = tmp("smoke_v5.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&["run", "bfs", &graph, "--trace-out", &trace])).expect("bfs with trace");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.contains("egraph-trace/5"),
        "trace must declare the v5 schema: {text}"
    );
    let parsed = egraph_core::telemetry::RunTrace::from_json(&text).unwrap();
    assert_eq!(parsed.schema, egraph_core::telemetry::TRACE_SCHEMA);
    // Every profiled phase carries the memory section. This test binary
    // runs the CLI in-process without the tracking allocator, so its
    // allocator fields read zero; the RSS fallback fills in on any
    // Linux host. `egraph_binary_tracks_phase_heap` checks the binary.
    for phase in ["load", "algorithm"] {
        let p = parsed.phases.iter().find(|p| p.name == phase).unwrap();
        let mem = p
            .memory
            .unwrap_or_else(|| panic!("phase '{phase}' missing memory section: {text}"));
        if std::path::Path::new("/proc/self/statm").exists() {
            assert!(mem.end_rss_bytes > 0, "rss fallback should be non-zero");
        }
    }
}

/// The `egraph` binary installs the tracking allocator, so a traced run
/// reports real heap numbers for each phase and `trace diff`'s memory
/// gate is armed.
#[test]
fn egraph_binary_tracks_phase_heap() {
    let graph = tmp("smoke_heap.egr");
    let trace = tmp("smoke_heap.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &graph,
    ]))
    .unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_egraph"))
        .args(["run", "bfs", &graph, "--trace-out", &trace])
        .output()
        .expect("run egraph run bfs");
    assert!(output.status.success(), "{output:?}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let parsed = egraph_core::telemetry::RunTrace::from_json(&text).unwrap();
    for phase in ["load", "algorithm"] {
        let p = parsed.phases.iter().find(|p| p.name == phase).unwrap();
        let mem = p
            .memory
            .unwrap_or_else(|| panic!("phase '{phase}' missing memory section: {text}"));
        assert!(mem.peak_bytes > 0, "phase '{phase}': {mem:?}");
        assert!(mem.allocated_bytes > 0, "phase '{phase}': {mem:?}");
    }
}

#[test]
fn trace_diff_gates_on_peak_memory_regression() {
    use egraph_core::telemetry::PhaseMemory;
    let graph = tmp("smoke_memdiff.egr");
    let old_path = tmp("smoke_memdiff_old.json");
    let new_path = tmp("smoke_memdiff_new.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&["run", "bfs", &graph, "--trace-out", &old_path])).expect("baseline run");
    let mut old =
        egraph_core::telemetry::RunTrace::from_json(&std::fs::read_to_string(&old_path).unwrap())
            .unwrap();
    // Pin a real peak on the algorithm phase, then double it in a copy:
    // the memory gate must trip at the default 10% threshold.
    let algo = old
        .phases
        .iter_mut()
        .find(|p| p.name == "algorithm")
        .expect("algorithm phase profiled");
    algo.memory = Some(PhaseMemory {
        allocated_bytes: 96 << 20,
        freed_bytes: 32 << 20,
        peak_bytes: 64 << 20,
        end_rss_bytes: 128 << 20,
    });
    std::fs::write(&old_path, old.to_json()).unwrap();
    let mut new = old.clone();
    new.phases
        .iter_mut()
        .find(|p| p.name == "algorithm")
        .unwrap()
        .memory
        .as_mut()
        .unwrap()
        .peak_bytes = 128 << 20;
    std::fs::write(&new_path, new.to_json()).unwrap();
    assert!(
        dispatch(&argv(&["trace", "diff", &old_path, &new_path])).is_err(),
        "2x peak-memory growth must trip the gate"
    );
    dispatch(&argv(&[
        "trace",
        "diff",
        &old_path,
        &new_path,
        "--threshold",
        "150",
    ]))
    .expect("150% threshold tolerates a 100% growth");
    // Raising the floor above both peaks declares the metric noise.
    dispatch(&argv(&[
        "trace",
        "diff",
        &old_path,
        &new_path,
        "--min-bytes",
        "1073741824",
    ]))
    .expect("--min-bytes above both peaks disarms the memory gate");
}

#[test]
fn trace_diff_rejects_unknown_schema_with_its_tag() {
    let bogus = tmp("smoke_future.json");
    std::fs::write(
        &bogus,
        "{\"schema\": \"egraph-trace/9\", \"algorithm\": \"bfs\"}",
    )
    .unwrap();
    let err = dispatch(&argv(&["trace", "diff", &bogus, &bogus]))
        .expect_err("future schema must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("egraph-trace/9"),
        "error must name the offending schema tag: {msg}"
    );
    assert!(
        msg.contains("egraph-trace/5"),
        "error must list what this build reads: {msg}"
    );
}

/// `update --trace-out` states each of its phases once: reading the
/// graph and the delta stream, merging, writing the merged file.
#[test]
fn update_trace_states_each_phase_once() {
    let graph = tmp("smoke_update.egr");
    let ops = tmp("smoke_update.ndjson");
    let merged = tmp("smoke_update_merged.egr");
    let trace = tmp("smoke_update.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    std::fs::write(
        &ops,
        "{\"op\":\"insert\",\"src\":1,\"dst\":2}\n{\"op\":\"delete\",\"src\":1,\"dst\":2}\n",
    )
    .unwrap();
    dispatch(&argv(&[
        "update",
        &graph,
        "--deltas",
        &ops,
        "--out",
        &merged,
        "--trace-out",
        &trace,
    ]))
    .expect("offline update with a trace");
    let text = std::fs::read_to_string(&trace).unwrap();
    let parsed = egraph_core::telemetry::RunTrace::from_json(&text).expect("valid trace");
    let names: Vec<&str> = parsed.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["load", "compact", "store"], "{text}");
    // The trace gates against itself without complaint.
    dispatch(&argv(&["trace", "diff", &trace, &trace])).expect("identical traces");
}

/// `update --to` reads each daemon reply as JSON and judges it by its
/// `ok` field: an accepted line whose id is `"error"` is not a
/// rejection, and a refused line still is.
#[test]
fn update_to_a_daemon_judges_each_reply_by_its_ok_field() {
    use egraph_core::serve::{ServeConfig, ServeDaemon, ServeGraph};
    use egraph_core::types::{Edge, EdgeList};
    let edges = (0..7).map(|v| Edge::new(v, v + 1)).collect();
    let daemon = ServeDaemon::start(
        "127.0.0.1:0",
        ServeGraph::Unweighted(EdgeList::new(8, edges).unwrap()),
        ServeConfig {
            threads: 1,
            metrics: false,
            ..ServeConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    daemon.wait_ready();
    let addr = daemon.addr().to_string();
    let ops = tmp("smoke_update_to.ndjson");
    std::fs::write(
        &ops,
        "{\"id\":\"error\",\"op\":\"insert\",\"src\":1,\"dst\":2}\n",
    )
    .unwrap();
    dispatch(&argv(&["update", "--to", &addr, "--deltas", &ops]))
        .expect("an accepted line with id \"error\" is accepted");
    std::fs::write(&ops, "{\"op\":\"insert\",\"src\":1,\"dst\":99}\n").unwrap();
    let err = dispatch(&argv(&["update", "--to", &addr, "--deltas", &ops]))
        .expect_err("an out-of-range vertex is refused");
    assert!(err.to_string().contains("daemon rejected"), "{err}");
    daemon.shutdown();
}

#[test]
fn run_with_metrics_addr_serves_and_matches_trace() {
    let graph = tmp("smoke_metrics.egr");
    let trace = tmp("smoke_metrics.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&[
        "run",
        "pagerank",
        &graph,
        "--iters",
        "3",
        "--trace-out",
        &trace,
        "--metrics-addr",
        "127.0.0.1:0",
    ]))
    .expect("run with --metrics-addr");
    let parsed =
        egraph_core::telemetry::RunTrace::from_json(&std::fs::read_to_string(&trace).unwrap())
            .unwrap();
    // The registry is process-global, so the teed counters are still
    // readable after the endpoint shut down — and only this test drives
    // them, so the totals must equal what the trace recorded.
    let text = egraph_metrics::global().render();
    for name in [
        "egraph_pool_regions_total",
        "egraph_pool_busy_seconds_total",
        "egraph_storage_bytes_read_total",
        "egraph_alloc_live_bytes",
        "egraph_algo_iterations_total",
        "egraph_algo_step_seconds_bucket",
    ] {
        assert!(text.contains(name), "missing metric {name}:\n{text}");
    }
    let iterations = text
        .lines()
        .find_map(|l| l.strip_prefix("egraph_algo_iterations_total "))
        .expect("iterations sample present")
        .trim()
        .parse::<f64>()
        .unwrap();
    assert_eq!(iterations as usize, parsed.iterations.len());
    // Engine counters are teed name by name: one family, same total.
    let family = "egraph_engine_edges_examined_total";
    let examined: Vec<f64> = text
        .lines()
        .filter_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
        .map(|v| v.trim().parse().unwrap())
        .collect();
    assert_eq!(examined, [parsed.counters["engine.edges_examined"]]);
    // The tee forwards phases to the trace recorder it wraps.
    let phases: Vec<&str> = parsed.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(phases, ["load", "preprocess", "algorithm"]);
    // The storage families publish the numbers the trace records.
    for (family, key) in [
        ("egraph_storage_bytes_read_total", "storage.bytes_read"),
        (
            "egraph_storage_records_parsed_total",
            "storage.records_parsed",
        ),
        ("egraph_storage_read_seconds_total", "storage.read_seconds"),
        (
            "egraph_storage_throughput_bytes_per_sec",
            "storage.throughput_bytes_per_sec",
        ),
    ] {
        let sample: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("missing {family}:\n{text}"))
            .trim()
            .parse()
            .unwrap();
        assert_eq!(sample, parsed.counters[key], "{family}");
    }
}

/// `serve --metrics-addr` reports the wave pool's counters: after the
/// daemon answered queries, the pool families read what its waves ran.
#[test]
fn serve_metrics_count_the_wave_pool() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::process::{Command, Stdio};

    let graph = tmp("smoke_serve_metrics.egr");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "14", "--out", &graph, "--seed", "5",
    ]))
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_egraph"))
        .args(["serve", &graph, "--listen", "127.0.0.1:0"])
        .args(["--threads", "2", "--metrics-addr", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn egraph serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let (mut metrics, mut queries) = (None, None);
    while queries.is_none() {
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "serve exited early"
        );
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("serving metrics on http://") {
            metrics = rest.strip_suffix("/metrics").map(str::to_string);
        }
        queries = line.strip_prefix("serving on ").map(str::to_string);
    }
    let mut stream = TcpStream::connect(queries.unwrap()).unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    for source in 0..20 {
        writeln!(
            stream,
            "{{\"id\":{source},\"algo\":\"bfs\",\"source\":{source}}}"
        )
        .unwrap();
        let mut reply = String::new();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    let mut scrape = TcpStream::connect(metrics.expect("metrics address printed")).unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    scrape.read_to_string(&mut text).unwrap();
    drop(child.stdin.take());
    assert!(child.wait().unwrap().success());

    for family in [
        "egraph_pool_regions_total",
        "egraph_pool_busy_seconds_total",
    ] {
        let value: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("missing {family}:\n{text}"))
            .trim()
            .parse()
            .unwrap();
        assert!(value > 0.0, "{family} reads {value}");
    }
}

#[test]
fn timeline_out_writes_chrome_trace() {
    let graph = tmp("smoke_timeline.egr");
    let out = tmp("smoke_timeline.json");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&[
        "run",
        "bfs",
        &graph,
        "--flow",
        "push",
        "--timeline-out",
        &out,
    ]))
    .expect("bfs with --timeline-out");
    let text = std::fs::read_to_string(&out).expect("timeline written");
    // Chrome trace-event shape: one traceEvents array, per-worker
    // thread_name metadata, "X" complete events with microsecond
    // timestamps, and push/pull direction annotations on engine steps.
    assert!(text.starts_with("{\"traceEvents\":["), "shape: {text}");
    assert!(text.ends_with("]}"));
    assert!(text.contains("\"ph\":\"M\""), "thread_name metadata");
    assert!(text.contains("\"args\":{\"name\":\"worker 0\"}"));
    assert!(text.contains("\"ph\":\"X\""), "complete events");
    assert!(text.contains("\"cat\":\"region\""), "pool region spans");
    assert!(
        text.contains("\"name\":\"vertex_push\""),
        "engine step span"
    );
    assert!(text.contains("\"args\":{\"direction\":\"push\"}"));
    assert!(text.contains("\"ts\":"));
    assert!(text.contains("\"dur\":"));
}

#[test]
fn help_prints() {
    dispatch(&argv(&["help"])).expect("help");
}

#[test]
fn save_results_roundtrip() {
    let graph = tmp("smoke_save.egr");
    let out = tmp("smoke_save_result.egr");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "9", "--out", &graph,
    ]))
    .unwrap();
    dispatch(&argv(&["run", "bfs", &graph, "--save", &out])).expect("bfs --save");
    let parents =
        egraph_storage::read_u32_result(std::fs::File::open(&out).unwrap()).expect("readable");
    assert_eq!(parents.len(), 512);
}

#[test]
fn convert_roundtrips_through_text() {
    let bin1 = tmp("smoke_conv.egr");
    let snap = tmp("smoke_conv.txt");
    let bin2 = tmp("smoke_conv2.egr");
    dispatch(&argv(&["generate", "rmat", "--scale", "8", "--out", &bin1])).unwrap();
    dispatch(&argv(&["convert", &bin1, &snap])).expect("bin -> snap");
    dispatch(&argv(&["convert", &snap, &bin2])).expect("snap -> bin");
    let a = egraph_storage::read_edge_list::<egraph_core::types::Edge, _>(
        std::fs::File::open(&bin1).unwrap(),
    )
    .unwrap();
    let b = egraph_storage::read_edge_list::<egraph_core::types::Edge, _>(
        std::fs::File::open(&bin2).unwrap(),
    )
    .unwrap();
    assert_eq!(a.edges(), b.edges());
}

#[test]
fn convert_reads_dimacs() {
    let gr = tmp("smoke_conv.gr");
    std::fs::write(&gr, "c tiny\np sp 3 2\na 1 2 4\na 2 3 6\n").unwrap();
    let out = tmp("smoke_conv_dimacs.egr");
    dispatch(&argv(&["convert", &gr, &out])).expect("dimacs -> bin");
    dispatch(&argv(&["run", "sssp", &out])).expect("sssp on converted dimacs");
}
