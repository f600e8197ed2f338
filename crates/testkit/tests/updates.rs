//! The update-aware conformance oracle as a test: seeded random
//! insert/delete batches against every corpus graph, with every
//! incremental result checked against a from-scratch recompute on the
//! merged graph — after every batch and after compaction.
//!
//! The quick tier always runs under `cargo test -q` (with the seeded
//! scheduler fault plan installed, so update correctness cannot depend
//! on a benign schedule). The exhaustive tier — more and bigger
//! batches, thread count 2 — is compiled in with
//! `--features exhaustive` and runs in nightly CI.
//!
//! Override the corpus seed with `EGRAPH_TEST_SEED`; failure messages
//! echo the seed in use.

use egraph_testkit::{quick_corpus, run_update_matrix, test_seed, UpdateConfig};

#[test]
fn quick_update_oracle_is_conformant() {
    let seed = test_seed();
    let graphs = quick_corpus(seed);
    let mut cfg = UpdateConfig::quick(seed);
    cfg.faults = true;
    let report = run_update_matrix(&graphs, &cfg);
    assert!(
        report.checks_run > 200,
        "suspiciously small update matrix: {} checks",
        report.checks_run
    );
    report.assert_clean();
}

/// A batch big enough to cross the fallback threshold must still
/// conform — the oracle sees both the repair and the recompute paths.
#[test]
fn oversized_batches_take_the_fallback_path_and_still_conform() {
    let seed = test_seed();
    let graphs: Vec<_> = quick_corpus(seed)
        .into_iter()
        .filter(|g| g.name == "rmat_s6")
        .collect();
    let cfg = UpdateConfig {
        batches: 2,
        // rmat_s6 has ~512 edges; 64 ops per batch is >5%.
        ops_per_batch: 64,
        ..UpdateConfig::quick(seed)
    };
    let report = run_update_matrix(&graphs, &cfg);
    report.assert_clean();
}

#[cfg(feature = "exhaustive")]
#[test]
fn exhaustive_update_oracle_is_conformant() {
    let seed = test_seed();
    let graphs = egraph_testkit::exhaustive_corpus(seed);
    let report = run_update_matrix(&graphs, &UpdateConfig::exhaustive(seed));
    report.assert_clean();
}
