//! Metric-naming conventions gate: every built-in metric family this
//! crate registers must pass [`MetricsRegistry::lint_names`] — counters
//! end in `_total`, seconds histograms in `_seconds`, and all names and
//! label keys use the Prometheus charset. Offenders fail CI here before
//! a scrape ever sees them.
//!
//! Only *clean* registrations may touch the global registry in this
//! binary (tests run in parallel and lint reads everything registered);
//! violation shapes are covered by unit tests on local registries.

use egraph_metrics::{global, register_alloc_metrics, register_pool_metrics};

#[test]
fn built_in_metric_families_pass_the_naming_lint() {
    register_pool_metrics();
    register_alloc_metrics();
    let violations = global().lint_names();
    assert!(violations.is_empty(), "naming violations: {violations:?}");
}

#[test]
fn iteration_telemetry_families_pass_the_naming_lint() {
    // The exact shapes `egraph run --metrics-addr` registers for the
    // per-iteration stream: histograms for the step distributions, a
    // counter for direction flips, and a gauge for the live iteration
    // index.
    let r = global();
    r.histogram_seconds("egraph_iter_seconds", "lint shape check");
    r.histogram_with_bounds(
        "egraph_iter_density",
        "lint shape check",
        &[],
        vec![0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0],
    );
    r.histogram_with_bounds(
        "egraph_iter_frontier_vertices",
        "lint shape check",
        &[],
        egraph_metrics::Histogram::log2_bounds(0, 30),
    );
    r.counter("egraph_iter_direction_flips_total", "lint shape check");
    r.gauge("egraph_iter_current", "lint shape check");
    let violations = r.lint_names();
    assert!(violations.is_empty(), "naming violations: {violations:?}");
}

#[test]
fn serve_style_labelled_registrations_pass_the_naming_lint() {
    let r = global();
    r.histogram_seconds_with_labels(
        "egraph_serve_queue_seconds",
        "lint shape check",
        &[("algo", "bfs"), ("layout", "adj")],
    );
    r.counter_with_labels(
        "egraph_serve_queries_total",
        "lint shape check",
        &[("algo", "bfs")],
    );
    r.counter_with_labels(
        "egraph_serve_coalesced_queries_total",
        "lint shape check",
        &[("algo", "bfs"), ("layout", "adj")],
    );
    r.histogram_with_bounds(
        "egraph_serve_wave_lanes",
        "lint shape check",
        &[],
        egraph_metrics::Histogram::log2_bounds(0, 6),
    );
    for (name, lo, hi) in [
        ("egraph_serve_wave_rounds", 0, 12),
        ("egraph_serve_wave_edges_scanned", 4, 34),
    ] {
        r.histogram_with_bounds(
            name,
            "lint shape check",
            &[("algo", "bfs"), ("layout", "adj")],
            egraph_metrics::Histogram::log2_bounds(lo, hi),
        );
    }
    let violations = r.lint_names();
    assert!(violations.is_empty(), "naming violations: {violations:?}");
}
