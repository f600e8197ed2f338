//! End-to-end tests of `egraph serve`: spawn the real binary on an
//! ephemeral port, hit it with concurrent clients and check the
//! batched answers are bit-identical to single-query runs through the
//! same `run_variant` resolver `egraph run` uses.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::Duration;

use egraph_cli::commands::dispatch;
use egraph_core::exec::ExecCtx;
use egraph_core::telemetry::json::{self, Value};
use egraph_core::types::{Edge, EdgeList};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};

fn argv(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("egraph-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// A spawned `egraph serve` child plus the address it announced.
struct Server {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(path: &str, extra: &[&str]) -> Self {
        Self::spawn_with_env(path, extra, &[])
    }

    fn spawn_with_env(path: &str, extra: &[&str], env: &[(&str, &str)]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_egraph"))
            .arg("serve")
            .arg(path)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .envs(env.iter().copied())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn egraph serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read serve stdout");
            assert!(n > 0, "serve exited before announcing its address");
            if let Some(rest) = line.trim().strip_prefix("serving on ") {
                break rest.to_string();
            }
        };
        Server {
            child,
            addr,
            stdout,
        }
    }

    /// Closes stdin (the portable shutdown trigger), waits for exit and
    /// returns the remaining stdout.
    fn shutdown(mut self) -> String {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("serve exit status");
        assert!(status.success(), "serve exited with {status}");
        let mut rest = String::new();
        let mut line = String::new();
        while self.stdout.read_line(&mut line).unwrap_or(0) > 0 {
            rest.push_str(&line);
            line.clear();
        }
        rest
    }
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
}

fn roundtrip(stream: &mut TcpStream, request: &str) -> Value {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    json::parse(line.trim()).expect("valid json response")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == name).map(|(_, v)| v))
        .unwrap_or(&Value::Null)
}

fn generate_unweighted(name: &str) -> String {
    let path = tmp(name);
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "10", "--out", &path, "--seed", "5",
    ]))
    .expect("generate rmat");
    path
}

/// Single-query reference levels through the same resolver `egraph
/// run` dispatches to.
fn reference_levels(path: &str, root: u32) -> Vec<u32> {
    let graph: EdgeList<Edge> =
        egraph_storage::read_edge_list(BufReader::new(File::open(path).unwrap())).unwrap();
    let prepared = PreparedGraph::new(&graph);
    let id: VariantId = "bfs/adj/push".parse().unwrap();
    let run = run_variant(
        &id,
        &ExecCtx::new(None),
        &prepared,
        &RunParams {
            root,
            ..RunParams::default()
        },
    )
    .unwrap();
    run.output.as_bfs().unwrap().level.clone()
}

#[test]
fn concurrent_batched_queries_match_single_query_runs() {
    let path = generate_unweighted("serve_rmat.egr");
    // A wide batching window so the concurrent clients land in one wave.
    let server = Server::spawn(&path, &["--batch-window-ms", "200"]);

    let clients = 8usize;
    let roots: Vec<u32> = (0..clients as u32).map(|i| i * 97 % 1024).collect();
    let expected: Vec<Vec<u32>> = roots.iter().map(|&r| reference_levels(&path, r)).collect();

    let barrier = Barrier::new(clients);
    let addr = server.addr.clone();
    let wave_sizes: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = roots
            .iter()
            .map(|&root| {
                let (addr, barrier) = (&addr, &barrier);
                s.spawn(move || {
                    let mut stream = connect(addr);
                    barrier.wait();
                    let request = format!(
                        "{{\"id\":{root},\"algo\":\"bfs\",\"source\":{root},\"values\":true}}"
                    );
                    let response = roundtrip(&mut stream, &request);
                    assert_eq!(field(&response, "ok"), &Value::Bool(true), "{response:?}");
                    let values = field(&response, "values").as_array().unwrap().to_vec();
                    let wave = field(&response, "wave_size").as_number().unwrap() as u64;
                    (values, wave)
                })
            })
            .collect();
        handles
            .into_iter()
            .zip(&expected)
            .map(|(h, want)| {
                let (values, wave) = h.join().unwrap();
                assert_eq!(values.len(), want.len(), "level array length");
                for (v, &w) in values.iter().zip(want) {
                    match v {
                        Value::Null => assert_eq!(w, u32::MAX, "unreachable mismatch"),
                        v => assert_eq!(v.as_number(), Some(f64::from(w)), "level mismatch"),
                    }
                }
                wave
            })
            .collect()
    });
    // The 200 ms window must have merged at least some of the eight
    // simultaneous queries into one multi-source wave.
    assert!(
        wave_sizes.iter().any(|&w| w > 1),
        "no batching observed: wave sizes {wave_sizes:?}"
    );

    let log = server.shutdown();
    assert!(log.contains("serve: clean shutdown"), "{log}");
}

#[test]
fn identical_queries_share_a_checksum_across_waves() {
    let path = generate_unweighted("serve_rmat_checksum.egr");
    let server = Server::spawn(&path, &["--batch-window-ms", "1"]);
    let mut stream = connect(&server.addr);
    let first = roundtrip(&mut stream, r#"{"id":1,"algo":"bfs","source":3}"#);
    let second = roundtrip(&mut stream, r#"{"id":2,"algo":"bfs","source":3}"#);
    assert_eq!(field(&first, "ok"), &Value::Bool(true));
    assert_eq!(
        field(&first, "checksum").as_str(),
        field(&second, "checksum").as_str(),
        "the same query must produce bit-identical results in any wave"
    );
    server.shutdown();
}

#[test]
fn mid_flight_disconnect_does_not_wedge_the_daemon() {
    let path = generate_unweighted("serve_rmat_disconnect.egr");
    let server = Server::spawn(&path, &["--batch-window-ms", "100"]);

    // Fire a query and slam the connection before the wave completes.
    {
        let mut stream = connect(&server.addr);
        stream
            .write_all(b"{\"id\":9,\"algo\":\"bfs\",\"source\":1}\n")
            .unwrap();
        // Dropped here, mid-flight.
    }
    // The daemon must still answer subsequent queries.
    let mut stream = connect(&server.addr);
    let response = roundtrip(
        &mut stream,
        r#"{"id":10,"algo":"khop","source":0,"depth":2}"#,
    );
    assert_eq!(field(&response, "ok"), &Value::Bool(true), "{response:?}");

    let log = server.shutdown();
    assert!(log.contains("serve: clean shutdown"), "{log}");
}

/// `--timeline-out` writes each pool as its own process with one track
/// per worker: the global pool, which builds the layout, and a wave
/// pool wider than it. A wave worker records only onto its own track,
/// so no two region spans overlap on any track.
#[test]
fn serve_timeline_has_one_track_per_worker_per_pool() {
    let path = tmp("serve_rmat_timeline.egr");
    dispatch(&argv(&[
        "generate", "rmat", "--scale", "14", "--out", &path, "--seed", "5",
    ]))
    .expect("generate rmat");
    let out = tmp("serve_timeline.json");
    let server = Server::spawn_with_env(
        &path,
        &["--threads", "4", "--timeline-out", &out],
        &[("EGRAPH_THREADS", "2")],
    );
    let mut stream = connect(&server.addr);
    for source in 0..40 {
        let request = format!("{{\"id\":{source},\"algo\":\"bfs\",\"source\":{source}}}");
        let response = roundtrip(&mut stream, &request);
        assert_eq!(field(&response, "ok"), &Value::Bool(true), "{response:?}");
    }
    let log = server.shutdown();
    assert!(log.contains("wrote timeline"), "{log}");

    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).expect("timeline is JSON");
    let mut tracks: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut regions: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    for event in field(&doc, "traceEvents").as_array().unwrap() {
        let number = |key| field(event, key).as_number().unwrap_or(-1.0) as u64;
        let (pid, tid) = (number("pid"), number("tid"));
        match (field(event, "ph").as_str(), field(event, "name").as_str()) {
            (Some("M"), Some("thread_name")) => {
                tracks.entry(pid).or_default().insert(tid);
            }
            (Some("X"), _) if field(event, "cat").as_str() == Some("region") => {
                let ts = field(event, "ts").as_number().unwrap();
                let dur = field(event, "dur").as_number().unwrap();
                regions.entry((pid, tid)).or_default().push((ts, ts + dur));
            }
            _ => {}
        }
    }
    // pid 1 is the global pool, pid 2 the wave pool.
    assert_eq!(tracks[&1], BTreeSet::from([0, 1]), "{tracks:?}");
    assert_eq!(tracks[&2], BTreeSet::from([0, 1, 2, 3]), "{tracks:?}");
    for worker in 0..4 {
        assert!(
            regions.contains_key(&(2, worker)),
            "wave worker {worker} ran no region"
        );
    }
    for ((pid, tid), spans) in &mut regions {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 + 1e-3 >= pair[0].1,
                "overlapping region spans on pid {pid} tid {tid}: {pair:?}"
            );
        }
    }
}

#[test]
fn serve_rejects_bad_listen_address_with_typed_error() {
    let path = generate_unweighted("serve_rmat_badaddr.egr");
    let output = Command::new(env!("CARGO_BIN_EXE_egraph"))
        .args(["serve", &path, "--listen", "256.256.256.256:1"])
        .output()
        .expect("run egraph serve");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("256.256.256.256:1"),
        "error must name the address: {stderr}"
    );
}
