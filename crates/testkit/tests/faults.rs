//! Deterministic fault injection, end to end.
//!
//! Storage faults (short reads, truncation, mid-stream I/O errors) must
//! surface as typed errors — never a panic, never a silently corrupted
//! graph. Scheduler faults (delayed workers, worker panics) must
//! either leave results bit-for-bit unchanged or propagate a panic
//! cleanly to the caller, leaving the pool reusable — never a hang.
//!
//! A scheduler fault plan is installed on one pool, so these tests
//! share no state and run in parallel.

use std::panic::{catch_unwind, AssertUnwindSafe};

use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};
use egraph_parallel::fault::{FaultGuard, FaultPlan};
use egraph_parallel::{parallel_for, parallel_reduce, with_pool, ThreadPool};
use egraph_storage::{
    read_dimacs, read_edge_list, read_snap, write_edge_list, write_snap, FaultedReader,
    FormatError, IoFault, TextError,
};
use egraph_testkit::{
    quick_corpus, run_matrix, test_seed, weighted, wide_rounds, MatrixConfig, NamedGraph,
};

fn sample_graph() -> EdgeList<Edge> {
    egraph_graphgen::rmat(6, 8, test_seed())
}

fn assert_same_graph(a: &EdgeList<Edge>, b: &EdgeList<Edge>) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.edges(), b.edges());
}

// ---------------------------------------------------------------- storage

#[test]
fn short_reads_deliver_identical_binary_graphs() {
    let graph = sample_graph();
    let mut bytes = Vec::new();
    write_edge_list(&mut bytes, &graph).unwrap();
    for seed in 0..4 {
        let reader = FaultedReader::new(&bytes[..], IoFault::ShortReads { seed });
        let got: EdgeList<Edge> = read_edge_list(reader)
            .unwrap_or_else(|e| panic!("short reads (seed {seed}) must be harmless: {e}"));
        assert_same_graph(&got, &graph);
    }
}

/// Every truncation point — mid-magic, mid-header, mid-record — must
/// produce a typed error, never a panic or a silently shorter graph;
/// past the header that error is `Truncated` and counts exactly the
/// whole records that arrived.
fn truncation_is_typed_and_exact<E: EdgeRecord + std::fmt::Debug>(graph: &EdgeList<E>) {
    let mut bytes = Vec::new();
    write_edge_list(&mut bytes, graph).unwrap();
    let record_len = (bytes.len() as u64 - 32) / graph.num_edges() as u64;
    for offset in 0..bytes.len() as u64 {
        let reader = FaultedReader::new(&bytes[..], IoFault::TruncateAt { offset });
        let err = read_edge_list::<E, _>(reader)
            .expect_err(&format!("truncation at byte {offset} must fail"));
        match err {
            FormatError::Truncated {
                expected_edges,
                found_edges,
            } if offset >= 32 => {
                assert_eq!(expected_edges, graph.num_edges() as u64);
                assert_eq!(found_edges, (offset - 32) / record_len, "at byte {offset}");
            }
            FormatError::Truncated { .. } if offset < 32 => {}
            other => panic!("unexpected error class at byte {offset}: {other}"),
        }
    }
}

#[test]
fn truncated_binary_is_always_a_typed_error() {
    truncation_is_typed_and_exact(&sample_graph());
    truncation_is_typed_and_exact(&weighted(&sample_graph()));
}

#[test]
fn mid_stream_error_surfaces_as_io() {
    let graph = sample_graph();
    let mut bytes = Vec::new();
    write_edge_list(&mut bytes, &graph).unwrap();
    for offset in [0, 7, 64, bytes.len() as u64 - 1] {
        let reader = FaultedReader::new(&bytes[..], IoFault::ErrorAt { offset });
        match read_edge_list::<Edge, _>(reader) {
            Err(FormatError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::Other, "at byte {offset}")
            }
            other => panic!("device error at byte {offset} must surface as Io, got {other:?}"),
        }
    }
}

#[test]
fn short_reads_deliver_identical_snap_graphs() {
    let graph = sample_graph();
    let mut text = Vec::new();
    write_snap(&mut text, &graph).unwrap();
    let reader = FaultedReader::new(&text[..], IoFault::ShortReads { seed: 11 });
    let got: EdgeList<Edge> = read_snap(reader, Some(graph.num_vertices())).unwrap();
    assert_same_graph(&got, &graph);
}

#[test]
fn truncated_dimacs_never_panics_and_errors_are_typed() {
    let graph = weighted(&sample_graph());
    let mut text = format!(
        "c generated\np sp {} {}\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    for e in graph.edges() {
        text.push_str(&format!("a {} {} {}\n", e.src + 1, e.dst + 1, e.weight));
    }
    let bytes = text.as_bytes();
    // Sweep a prefix of offsets densely plus a coarse tail: every
    // truncation must either fail with a typed error or — when the cut
    // lands after the last arc — reproduce the graph exactly (the
    // declared arc count rules out silently shorter results).
    let offsets = (0..200u64).chain((200..=bytes.len() as u64).step_by(17));
    for offset in offsets {
        let reader = FaultedReader::new(bytes, IoFault::TruncateAt { offset });
        match read_dimacs(reader) {
            Ok(got) => {
                assert_eq!(got.num_vertices(), graph.num_vertices(), "at byte {offset}");
                assert_eq!(got.num_edges(), graph.num_edges(), "at byte {offset}");
            }
            Err(TextError::Io(_) | TextError::Parse { .. } | TextError::Graph(_)) => {}
        }
    }
}

#[test]
fn dimacs_mid_stream_error_surfaces_as_io() {
    let graph: EdgeList<WEdge> = weighted(&sample_graph());
    let mut text = format!("p sp {} {}\n", graph.num_vertices(), graph.num_edges());
    for e in graph.edges() {
        text.push_str(&format!("a {} {} {}\n", e.src + 1, e.dst + 1, e.weight));
    }
    let reader = FaultedReader::new(text.as_bytes(), IoFault::ErrorAt { offset: 40 });
    match read_dimacs(reader) {
        Err(TextError::Io(_)) => {}
        other => panic!("expected TextError::Io, got {other:?}"),
    }
}

// -------------------------------------------------------------- scheduler

/// A two-graph conformance matrix: the full oracle (serial reference +
/// single-thread baseline), with every pool it builds under the seeded
/// delay plan when `faults` is set. The second graph has rounds above
/// the engine's inline grain, so the faults reach the parallel push
/// path as well as the inline one.
fn mini_matrix(faults: bool) {
    let seed = test_seed();
    let graphs = vec![
        NamedGraph {
            name: "fault/rmat_s5".to_string(),
            graph: egraph_graphgen::rmat(5, 8, seed),
        },
        wide_rounds(seed),
    ];
    let cfg = MatrixConfig {
        thread_counts: vec![1, 4],
        seed,
        pagerank_iterations: 3,
        faults,
    };
    run_matrix(&graphs, &cfg).assert_clean();
}

#[test]
fn delayed_workers_do_not_change_results() {
    mini_matrix(true);
}

#[test]
fn injected_worker_panic_propagates_and_pool_remains_usable() {
    let pool = ThreadPool::new(4);
    {
        let _guard = FaultGuard::install(&pool, FaultPlan::new(test_seed()).panic_worker(1, 1));
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || {
                parallel_for(0..10_000, 64, |_| {});
            })
        }));
        let payload = result.expect_err("the injected panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("injected fault"),
            "panic payload should identify the injection: {msg:?}"
        );
    }
    // Plan cleared by the guard: the same pool must still work and the
    // scoped-pool override must have been restored on unwind.
    let sum = with_pool(&pool, || {
        parallel_reduce(
            0..1_000usize,
            64,
            || 0usize,
            |acc, chunk| acc + chunk.sum::<usize>(),
            |a, b| a + b,
        )
    });
    assert_eq!(sum, 1_000 * 999 / 2);
}

#[test]
fn conformance_holds_after_panic_recovery() {
    {
        let pool = ThreadPool::new(4);
        let _guard = FaultGuard::install(&pool, FaultPlan::new(test_seed()).panic_worker(2, 1));
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_pool(&pool, || parallel_for(0..4_096, 16, |_| {}))
        }));
        assert!(result.is_err());
    }
    // With the plan cleared, the full oracle must pass again.
    mini_matrix(false);
}

// A cheap liveness check on the corpus itself: every fault test above
// relies on the quick corpus existing and being non-trivial.
#[test]
fn corpus_is_nonempty() {
    assert!(quick_corpus(test_seed()).len() >= 10);
}
