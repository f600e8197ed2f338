//! Property and compatibility tests for the schema-v5 iteration
//! telemetry: whatever per-iteration records a run produces must
//! survive the JSON encoding bit-for-bit, any other schema generation —
//! retired or future — and any cut or corrupted document must stay a
//! *typed* error, and the decision log itself must be a pure function
//! of the graph — identical across thread counts.

use std::collections::BTreeMap;

use egraph_core::exec::ExecCtx;
use egraph_core::metrics::{DirectionDecision, IterStat, StepMode};
use egraph_core::telemetry::{
    PhaseProfile, RunTrace, TraceError, TraceIteration, TraceRecorder, TRACE_SCHEMA,
};
use egraph_core::types::{Edge, EdgeList};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use egraph_parallel::ThreadPool;
use proptest::prelude::*;

/// Builds one iteration entry from raw integer draws, with every
/// field (density, decision, hardware) populated. Seconds and
/// density go through f64 `Display`, whose shortest-round-trip
/// formatting the parser reads back exactly.
#[allow(clippy::cast_precision_loss)]
fn iteration(
    step: usize,
    (frontier, edges): (usize, usize),
    secs_us: u32,
    (observed, cutoff, forced): (usize, usize, bool),
    hw_keys: usize,
) -> TraceIteration {
    let decision = if forced {
        DirectionDecision::forced(observed, cutoff)
    } else {
        DirectionDecision::heuristic(observed, cutoff)
    };
    let mut hardware = BTreeMap::new();
    for (i, key) in ["cycles", "instructions", "llc_load_misses"]
        .iter()
        .take(hw_keys)
        .enumerate()
    {
        hardware.insert(key.to_string(), (step * 1000 + i) as f64 * 0.5);
    }
    TraceIteration {
        step,
        stat: IterStat {
            frontier_size: frontier,
            edges_scanned: edges,
            seconds: f64::from(secs_us) * 1e-6,
            mode: if decision.says_pull() {
                StepMode::Pull
            } else {
                StepMode::Push
            },
            density: frontier as f64 / edges.max(1) as f64,
            decision,
        },
        hardware,
    }
}

/// A full v5 trace around the given iterations.
fn v5_trace(iterations: Vec<TraceIteration>) -> RunTrace {
    let mut t = RunTrace::new("bfs");
    t.config.insert("layout".into(), "adj".into());
    t.config.insert("flow".into(), "push-pull".into());
    for (name, seconds) in [("load", 0.25), ("algorithm", 1.5)] {
        t.phases.push(PhaseProfile {
            name: name.into(),
            seconds,
            ..PhaseProfile::default()
        });
    }
    t.iterations = iterations;
    t
}

type IterDraw = ((usize, usize), u32, (usize, usize, bool), usize);

fn iterations_strategy() -> impl Strategy<Value = Vec<IterDraw>> {
    prop::collection::vec(
        (
            (0usize..5_000, 0usize..100_000),
            0u32..1_000_000,
            (0usize..200_000, 1usize..10_000, any::<bool>()),
            0usize..4,
        ),
        0..12,
    )
}

proptest! {
    #[test]
    fn v5_iterations_round_trip_through_json(draws in iterations_strategy()) {
        let trace = v5_trace(
            draws
                .iter()
                .enumerate()
                .map(|(step, &(fe, us, d, hw))| iteration(step, fe, us, d, hw))
                .collect(),
        );
        let parsed = RunTrace::from_json(&trace.to_json()).expect("own JSON parses");
        prop_assert_eq!(&parsed.schema, TRACE_SCHEMA);
        prop_assert_eq!(parsed, trace);
    }

    #[test]
    fn foreign_schema_versions_stay_typed_errors(version in 6u32..10_000) {
        let tag = format!("egraph-trace/{version}");
        let doc = format!(
            r#"{{"schema": "{tag}", "algorithm": "bfs", "config": {{}},
                "iterations": [], "counters": {{}}, "phases": []}}"#
        );
        match RunTrace::from_json(&doc) {
            Err(TraceError::UnsupportedSchema(got)) => prop_assert_eq!(got, tag),
            other => {
                return Err(TestCaseError::fail(format!(
                    "expected UnsupportedSchema, got {other:?}"
                )))
            }
        }
    }

    /// A cut or corrupted trace file is a typed error (or, for a byte
    /// the format does not care about, still a trace), never a panic:
    /// the document is cut at a drawn offset or has one drawn byte
    /// replaced.
    #[test]
    fn a_trace_file_is_never_a_panic(
        draws in iterations_strategy(),
        at in any::<prop::sample::Index>(),
        cut in any::<bool>(),
        byte in any::<u8>(),
    ) {
        let trace = v5_trace(
            draws
                .iter()
                .enumerate()
                .map(|(step, &(fe, us, d, hw))| iteration(step, fe, us, d, hw))
                .collect(),
        );
        let whole = trace.to_json();
        let mut bytes = whole.clone().into_bytes();
        let at = at.index(bytes.len());
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] = byte;
        }
        let text = String::from_utf8_lossy(&bytes);
        let parsed = RunTrace::from_json(&text);
        // Everything up to the closing brace is structure: a cut there
        // is always malformed.
        if cut && text.trim_end().len() < whole.trim_end().len() {
            prop_assert!(matches!(parsed, Err(TraceError::Malformed(_))), "{parsed:?}");
        }
    }
}

/// Generations 1–4 of the schema are no longer read: a document that
/// is well-formed in every other respect is refused by its tag, with
/// the tag in the error.
#[test]
fn retired_schema_generations_are_typed_errors() {
    let trace = v5_trace(vec![iteration(0, (1, 5), 10, (6, 97, false), 1)]);
    for generation in 1..=4 {
        let tag = format!("egraph-trace/{generation}");
        let expected = Err(TraceError::UnsupportedSchema(tag.clone()));
        let json = trace.to_json().replacen(TRACE_SCHEMA, &tag, 1);
        assert_eq!(RunTrace::from_json(&json), expected, "{tag}");
    }
}

/// Parsing is linear in the document: a 20 000-iteration trace
/// round-trips in well under the time a reader that re-scans the rest
/// of the document per string character needs (minutes).
#[test]
fn a_long_trace_parses_in_linear_time() {
    let trace = v5_trace(
        (0..20_000)
            .map(|step| iteration(step, (step % 977, step * 3), 125, (step, 97, false), 3))
            .collect(),
    );
    let text = trace.to_json();
    let started = std::time::Instant::now();
    let parsed = RunTrace::from_json(&text).expect("own JSON parses");
    let elapsed = started.elapsed();
    assert_eq!(parsed, trace);
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "{} bytes took {elapsed:?}",
        text.len()
    );
}

/// A density-skewed graph: a short lead-in chain, a hub step that
/// lights up almost every vertex at once, and a short tail — BFS
/// push-pull must switch push → pull at the hub and back after it.
fn skewed_graph() -> EdgeList {
    let spokes = 1200u32;
    let nv = spokes + 3; // chain 0,1 + spokes + tail 2
    let mut edges = vec![Edge::new(0, 1)];
    for v in 2..spokes + 2 {
        edges.push(Edge::new(1, v));
        edges.push(Edge::new(v, spokes + 2));
    }
    EdgeList::new(nv as usize, edges).expect("valid edge list")
}

/// Runs BFS push-pull over the skewed graph on a pool of `threads`
/// workers and returns the recorded decision log (everything except
/// the wall-clock seconds, which legitimately vary).
fn decision_log(threads: usize) -> Vec<(usize, usize, usize, StepMode, u64, DirectionDecision)> {
    let graph = skewed_graph();
    let recorder = TraceRecorder::new();
    let pool = ThreadPool::new(threads);
    let prepared = PreparedGraph::new(&graph);
    let id: VariantId = "bfs/adj/push-pull".parse().expect("valid variant spec");
    run_variant(
        &id,
        &ExecCtx::new(&pool).recorder(&recorder),
        &prepared,
        &RunParams::default(),
    )
    .expect("variant is in the support matrix");
    recorder
        .iterations()
        .into_iter()
        .map(|r| {
            (
                r.step,
                r.stat.frontier_size,
                r.stat.edges_scanned,
                r.stat.mode,
                r.stat.density.to_bits(),
                r.stat.decision,
            )
        })
        .collect()
}

#[test]
fn decision_log_is_identical_across_thread_counts() {
    let baseline = decision_log(1);
    assert!(
        baseline.len() >= 3,
        "expected a multi-step run, got {baseline:?}"
    );
    let flips = baseline.windows(2).filter(|w| w[0].3 != w[1].3).count();
    assert!(
        flips >= 2,
        "the skewed graph must force a pull round trip, got {baseline:?}"
    );
    for threads in [2, 4] {
        assert_eq!(
            decision_log(threads),
            baseline,
            "decision log diverged at {threads} threads"
        );
    }
}
