//! Serving throughput: query batching vs one-at-a-time execution in
//! the `egraph serve` daemon.
//!
//! Starts two in-process daemons on the same RMAT graph — one with the
//! full 64-query batching window, one with `max_wave = 1` (every query
//! runs its own traversal) — and drives each with 1..=64 concurrent
//! TCP clients issuing BFS point queries. Reports queries/second and
//! p50/p99 latency per client count, and checks every root's checksum
//! agrees between the two modes (batching must not change answers).
//!
//! Expected shape: one-at-a-time throughput is flat (the graph is
//! scanned once per query no matter how many clients wait); batched
//! throughput grows with concurrency because up to 64 queries share
//! one bit-packed edge scan. The acceptance bar is ≥2× qps at 64
//! clients on RMAT-18 (`--scale 18`).
//!
//! A second section measures **query coalescing** under skewed roots:
//! one seeded burst of 1024 BFS queries whose roots are Zipf(1.0) over
//! 128 candidates (the standing benchmark's `serve_mixed` shape),
//! answered (a) by the engine, where queries naming a root that already
//! has a lane ride it, and (b) by the wave kernel driven directly the
//! way the engine drove it before duplicates collapsed: 64 queries per
//! wave in admission order, one lane and one checksum per query. Side
//! (b) pays no queueing or channel cost, so the reported ratio is a
//! floor. Every checksum must agree between the two.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use egraph_bench::{fmt_ratio, graphs, min_time, reps, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::layout::{AdjacencyList, EdgeDirection};
use egraph_core::preprocess::{CsrBuilder, Strategy};
use egraph_core::serve::{
    multi_bfs, Query, QueryKind, QueryValues, ServeConfig, ServeDaemon, ServeEngine, ServeGraph,
    MAX_WAVE,
};
use egraph_core::types::{Edge, EdgeList};
use egraph_graphgen::Zipf;
use egraph_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Queries issued per client-count level (split across the clients).
const TOTAL_QUERIES: usize = 256;

/// The Zipf-rooted burst: queries, candidate roots and schedule seed.
const ZIPF_QUERIES: usize = 1024;
const ZIPF_ROOTS: usize = 128;
const ZIPF_SEED: u64 = 2017;

/// What one pass over the Zipf burst produced.
struct ZipfPass {
    checksums: Vec<u64>,
    waves: f64,
    lanes: usize,
}

/// The burst through the engine: everything submitted at once, answers
/// collected in order. Lanes come from the flight recorder.
fn zipf_coalesced(engine: &ServeEngine, schedule: &[u32]) -> (ZipfPass, f64) {
    let recorded = engine.journal().recorded();
    let start = Instant::now();
    let receivers: Vec<_> = schedule
        .iter()
        .map(|&source| {
            let query = Query {
                kind: QueryKind::Bfs,
                source,
                depth: 0,
            };
            engine.submit(query).expect("schedule roots are in range")
        })
        .collect();
    let mut checksums = Vec::with_capacity(schedule.len());
    let mut waves = 0.0;
    for rx in receivers {
        let outcome = rx.recv().expect("engine answers every query");
        checksums.push(outcome.checksum);
        waves += 1.0 / outcome.wave_size as f64;
    }
    let secs = start.elapsed().as_secs_f64();
    // The recorder trails the last send by one deposit.
    while engine.journal().recorded() < recorded + schedule.len() as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut lanes_of_wave = BTreeMap::new();
    for event in engine.journal().dump(schedule.len()) {
        lanes_of_wave.insert(event.wave, event.lanes as usize);
    }
    let pass = ZipfPass {
        checksums,
        waves,
        lanes: lanes_of_wave.values().sum(),
    };
    (pass, secs)
}

/// The same burst with a lane per query: the wave kernel called
/// directly on 64-query chunks in admission order, duplicates included,
/// and every lane's answer hashed.
fn zipf_lane_per_query(
    adj: &AdjacencyList<Edge>,
    pool: &ThreadPool,
    schedule: &[u32],
) -> (ZipfPass, f64) {
    let ctx = ExecCtx::new(pool);
    let start = Instant::now();
    let mut checksums = Vec::with_capacity(schedule.len());
    for chunk in schedule.chunks(MAX_WAVE) {
        let levels = ctx.scoped(|| multi_bfs(adj, chunk, u32::MAX, &ctx));
        checksums.extend(
            levels
                .into_iter()
                .map(|l| QueryValues::Levels(l).checksum()),
        );
    }
    let secs = start.elapsed().as_secs_f64();
    let pass = ZipfPass {
        checksums,
        waves: schedule.len().div_ceil(MAX_WAVE) as f64,
        lanes: schedule.len(),
    };
    (pass, secs)
}

/// Runs the Zipf-rooted burst both ways and appends its two rows.
fn zipf_section(graph: &EdgeList<Edge>, table: &mut ResultTable) {
    // Candidates are the highest-degree vertices (all in the giant
    // component), most popular first.
    let degree = graph.out_degrees();
    let mut candidates: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    candidates.sort_by_key(|&v| (std::cmp::Reverse(degree[v as usize]), v));
    candidates.truncate(ZIPF_ROOTS);
    let zipf = Zipf::new(candidates.len(), 1.0);
    let mut rng = StdRng::seed_from_u64(ZIPF_SEED);
    let schedule: Vec<u32> = (0..ZIPF_QUERIES)
        .map(|_| candidates[zipf.sample(&mut rng)])
        .collect();
    let mut distinct = schedule.clone();
    distinct.sort_unstable();
    distinct.dedup();

    let threads = egraph_parallel::current_num_threads();
    let engine = ServeEngine::start(
        ServeGraph::Unweighted(graph.clone()),
        ServeConfig {
            threads,
            metrics: false,
            journal_capacity: ZIPF_QUERIES,
            ..ServeConfig::default()
        },
    );
    engine.wait_ready();
    let pool = ThreadPool::new(threads);
    let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
        .sort_neighbors(true)
        .build(graph);
    let (coalesced, coalesced_secs) = min_time(reps(), || zipf_coalesced(&engine, &schedule));
    let (per_query, per_query_secs) =
        min_time(reps(), || zipf_lane_per_query(&adj, &pool, &schedule));
    engine.shutdown();
    assert_eq!(
        coalesced.checksums, per_query.checksums,
        "coalesced answers must be bit-identical to lane-per-query answers"
    );

    println!(
        "\nZipf(1.0) burst: {ZIPF_QUERIES} bfs queries over {ZIPF_ROOTS} roots ({} distinct), seed {ZIPF_SEED}",
        distinct.len()
    );
    for (mode, pass, secs) in [
        ("zipf lane-per-query", &per_query, per_query_secs),
        ("zipf coalesced", &coalesced, coalesced_secs),
    ] {
        let qps = ZIPF_QUERIES as f64 / secs;
        println!(
            "  {mode:<20} {qps:>9.1} qps  ({:.0} waves, {} lanes, {:.1} queries/scan)",
            pass.waves,
            pass.lanes,
            ZIPF_QUERIES as f64 / pass.waves
        );
        table.add_row(vec![
            mode.into(),
            "burst".into(),
            ZIPF_QUERIES.to_string(),
            format!("{qps:.1}"),
            "-".into(),
            "-".into(),
        ]);
    }
    let speedup = per_query_secs / coalesced_secs.max(1e-9);
    println!(
        "  coalescing speedup on the Zipf burst: {} (checksums bit-identical)",
        fmt_ratio(speedup)
    );
}

/// One client session: `count` sequential BFS queries starting at
/// `first`, returning per-query latencies and (root, checksum) pairs.
fn client(
    addr: SocketAddr,
    roots: &[u32],
    first: usize,
    count: usize,
) -> (Vec<f64>, Vec<(u32, String)>) {
    let stream = TcpStream::connect(addr).expect("connect to serve daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(count);
    let mut checksums = Vec::with_capacity(count);
    let mut line = String::new();
    for i in 0..count {
        let root = roots[(first + i) % roots.len()];
        let start = Instant::now();
        writer
            .write_all(format!("{{\"id\":{i},\"algo\":\"bfs\",\"source\":{root}}}\n").as_bytes())
            .unwrap();
        line.clear();
        reader.read_line(&mut line).expect("response line");
        latencies.push(start.elapsed().as_secs_f64());
        let checksum = line
            .split("\"checksum\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("response without checksum: {line}"))
            .to_string();
        checksums.push((root, checksum));
    }
    (latencies, checksums)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Drives `clients` concurrent sessions against `addr`; returns
/// (qps, p50 seconds, p99 seconds) and folds checksums into `seen`.
fn drive(
    addr: SocketAddr,
    clients: usize,
    roots: &[u32],
    seen: &Mutex<BTreeMap<u32, String>>,
) -> (f64, f64, f64) {
    let per_client = TOTAL_QUERIES.div_ceil(clients);
    let wall = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(addr, roots, c * per_client, per_client)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (lat, sums) = h.join().expect("client thread");
                let mut seen = seen.lock().unwrap();
                for (root, sum) in sums {
                    let prev = seen.entry(root).or_insert_with(|| sum.clone());
                    assert_eq!(
                        *prev, sum,
                        "root {root}: batched and unbatched answers must be bit-identical"
                    );
                }
                lat
            })
            .collect()
    });
    let wall = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let qps = latencies.len() as f64 / wall;
    (
        qps,
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
    )
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_serve_qps",
        "serve-mode throughput (query batching vs one-at-a-time)",
    );

    let graph = graphs::rmat(ctx.scale);
    println!(
        "graph: RMAT{} ({} vertices, {} edges); wave limit {MAX_WAVE}\n",
        ctx.scale,
        graph.num_vertices(),
        graph.num_edges()
    );
    let nv = graph.num_vertices() as u32;
    let roots: Vec<u32> = (0..64u32)
        .map(|i| (i.wrapping_mul(2654435761)) % nv)
        .collect();

    let batched = ServeDaemon::start(
        "127.0.0.1:0",
        ServeGraph::Unweighted(graph.clone()),
        ServeConfig {
            metrics: false,
            ..ServeConfig::default()
        },
    )
    .expect("bind batched daemon");
    let unbatched = ServeDaemon::start(
        "127.0.0.1:0",
        ServeGraph::Unweighted(graph.clone()),
        ServeConfig {
            max_wave: 1,
            metrics: false,
            ..ServeConfig::default()
        },
    )
    .expect("bind unbatched daemon");
    batched.wait_ready();
    unbatched.wait_ready();

    let mut table = ResultTable::new(
        "serve_qps",
        &["mode", "clients", "queries", "qps", "p50(ms)", "p99(ms)"],
    );
    let seen = Mutex::new(BTreeMap::new());
    let mut speedup_at_max = 0.0;
    for clients in [1usize, 2, 4, 8, 16, 32, 64] {
        let (one_qps, one_p50, one_p99) = drive(unbatched.addr(), clients, &roots, &seen);
        let (bat_qps, bat_p50, bat_p99) = drive(batched.addr(), clients, &roots, &seen);
        for (mode, qps, p50, p99) in [
            ("one-at-a-time", one_qps, one_p50, one_p99),
            ("batched", bat_qps, bat_p50, bat_p99),
        ] {
            table.add_row(vec![
                mode.into(),
                clients.to_string(),
                TOTAL_QUERIES.to_string(),
                format!("{qps:.1}"),
                format!("{:.2}", p50 * 1e3),
                format!("{:.2}", p99 * 1e3),
            ]);
        }
        println!(
            "{clients:>2} clients: batched {bat_qps:>8.1} qps vs one-at-a-time {one_qps:>8.1} qps ({})",
            fmt_ratio(bat_qps / one_qps.max(1e-9))
        );
        if clients == 64 {
            speedup_at_max = bat_qps / one_qps.max(1e-9);
        }
    }

    println!(
        "\nchecksums: {} distinct roots, all bit-identical across modes",
        seen.lock().unwrap().len()
    );
    println!(
        "batching speedup at 64 clients: {}  (acceptance bar: >=2x on RMAT-18)",
        fmt_ratio(speedup_at_max)
    );
    batched.shutdown();
    unbatched.shutdown();

    zipf_section(&graph, &mut table);
    table.print();
    ctx.save(&table);
}
