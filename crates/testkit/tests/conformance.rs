//! The conformance matrix as a test: every technique combination over
//! the shared corpus, against both oracles.
//!
//! The quick tier always runs under `cargo test -q`. The exhaustive
//! tier (larger corpus, thread count 2, paper iteration counts) is
//! compiled in with `--features exhaustive` and runs in nightly CI.
//!
//! Override the corpus seed with `EGRAPH_TEST_SEED` (decimal or
//! `0x`-hex); failure messages echo the seed in use.

use egraph_core::engine::INLINE_ROUNDS;
use egraph_core::exec::ExecCtx;
use egraph_core::telemetry::TraceRecorder;
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use egraph_parallel::ThreadPool;
use egraph_testkit::{quick_corpus, run_matrix, test_seed, weighted, wide_rounds, MatrixConfig};

#[test]
fn quick_matrix_is_conformant() {
    let seed = test_seed();
    let graphs = quick_corpus(seed);
    let report = run_matrix(&graphs, &MatrixConfig::quick(seed));
    assert!(
        report.combos_run > 300,
        "suspiciously small matrix: {} combos",
        report.combos_run
    );
    report.assert_clean();
}

/// The matrix above compares a multi-thread run with the one-thread
/// baseline; that checks the parallel push path only where a round is
/// above the inline grain. `wide_rounds` is the quick graph that has
/// such rounds: on four threads its push-only BFS and SSSP runs take
/// both paths.
#[test]
fn the_quick_corpus_runs_rounds_on_both_sides_of_the_grain() {
    let seed = test_seed();
    let graph = wide_rounds(seed).graph;
    let wgraph = weighted(&graph);
    let pool = ThreadPool::new(4);
    for spec in ["bfs/adj/push", "sssp/adj/push"] {
        let id: VariantId = spec.parse().unwrap();
        let recorder = TraceRecorder::new();
        let ctx = ExecCtx::new(&pool).recorder(&recorder);
        let params = RunParams::default();
        if id.algo.needs_weights() {
            run_variant(&id, &ctx, &PreparedGraph::new(&wgraph), &params)
        } else {
            run_variant(&id, &ctx, &PreparedGraph::new(&graph), &params)
        }
        .unwrap();
        let steps = recorder.iterations().len() as f64;
        let inline = recorder.counters()[INLINE_ROUNDS];
        assert!(
            0.0 < inline && inline < steps,
            "{spec}: {inline} of {steps} rounds inline (seed {seed:#x})"
        );
    }
}

#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_matrix_is_conformant() {
    let seed = test_seed();
    let graphs = egraph_testkit::exhaustive_corpus(seed);
    let report = run_matrix(&graphs, &MatrixConfig::exhaustive(seed));
    report.assert_clean();
}
