//! Integration tests for the observability surface: timeline spans and
//! the pool counters (regions, per-worker busy time).
//!
//! These live in their own test binary (own process) because they flip
//! the global telemetry/timeline gates, which the library's unit tests
//! assume stay off.

use std::sync::{Mutex, Once};

use egraph_parallel::telemetry;
use egraph_parallel::timeline::{self, SpanKind};

/// Serializes every test here: each flips a process-global gate
/// (telemetry or timeline) and reads what was recorded while it was
/// on, so one test's `enable()` / `disable()` / `reset()` must not land
/// inside another's regions.
static GATE: Mutex<()> = Mutex::new(());

/// Pins the global pool to 4 workers before any test touches it, so
/// the per-worker assertions are meaningful regardless of host size.
fn init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("EGRAPH_THREADS", "4");
        assert_eq!(egraph_parallel::current_num_threads(), 4);
    });
}

#[test]
fn timeline_records_region_spans_per_worker() {
    init();
    let _gate = GATE.lock().unwrap();
    timeline::reset();
    timeline::enable();
    egraph_parallel::parallel_for(0..100_000, 1024, |_r| {
        std::hint::black_box(0u64);
    });
    {
        let _step = timeline::span(SpanKind::Step, "test_step", "push");
        egraph_parallel::parallel_for(0..10_000, 1024, |_r| {});
    }
    timeline::disable();

    let spans = timeline::snapshot();
    let regions: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Region)
        .collect();
    // Two parallel regions ran on a 4-thread pool: every worker logged
    // one region span per region it executed; worker 0 (the caller)
    // ran both.
    assert!(regions.iter().filter(|s| s.worker == 0).count() >= 2);
    let distinct_workers: std::collections::BTreeSet<_> =
        regions.iter().map(|s| s.worker).collect();
    assert!(
        distinct_workers.len() >= 2,
        "expected region spans on several workers, got {distinct_workers:?}"
    );
    let step = spans
        .iter()
        .find(|s| s.kind == SpanKind::Step && s.name == "test_step")
        .expect("step span recorded");
    assert_eq!(step.detail, "push");
    assert_eq!(step.worker, 0);
    assert_eq!(timeline::dropped_spans(), 0);
}

#[test]
fn chrome_trace_export_has_tracks_and_directions() {
    init();
    let _gate = GATE.lock().unwrap();
    timeline::reset();
    timeline::enable();
    {
        let _step = timeline::span(SpanKind::Step, "export_step", "pull");
        egraph_parallel::parallel_for(0..10_000, 512, |_r| {});
    }
    timeline::disable();

    let json = timeline::chrome_trace_json();
    // Shape checks against the Chrome trace-event format: a single
    // traceEvents array, thread-name metadata per worker track, "X"
    // complete events, and the push/pull annotation on step spans.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    for worker in 0..4 {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"worker {worker}\"}}")),
            "missing thread_name metadata for worker {worker}"
        );
    }
    assert!(json.contains("\"ph\":\"M\""));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"cat\":\"region\""));
    assert!(json.contains("\"name\":\"export_step\""));
    assert!(json.contains("\"args\":{\"direction\":\"pull\"}"));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));
}

/// A `parallel_for` whose real work all sits in the first quarter of
/// the range: uneven chunk costs, as on a power-law graph.
fn skewed_parallel_for() {
    let n = 4_096;
    egraph_parallel::parallel_for(0..n, 16, |piece| {
        for i in piece {
            if i < n / 4 {
                let mut x = i as u64 + 1;
                for _ in 0..20_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(x);
            }
        }
    });
}

#[test]
fn skewed_workload_shows_up_in_busy_time_and_imbalance() {
    init();
    let _gate = GATE.lock().unwrap();
    telemetry::enable();
    skewed_parallel_for();
    telemetry::disable();

    let snap = telemetry::snapshot();
    assert_eq!(snap.busy_seconds.len(), 4);
    assert_eq!(snap.regions, 1);
    assert!(snap.load_imbalance() >= 1.0, "{snap:?}");
    assert!(snap.total_busy_seconds() > 0.0, "{snap:?}");
}

#[test]
fn enable_opens_a_fresh_window_after_a_busy_one() {
    init();
    let _gate = GATE.lock().unwrap();

    // Run 1: three skewed regions. The pool is persistent (and reusable
    // after panics), so these counts would survive into the next run if
    // enable() did not open a fresh window.
    telemetry::enable();
    for _ in 0..3 {
        skewed_parallel_for();
    }
    telemetry::disable();
    let first = telemetry::snapshot();
    assert_eq!(first.regions, 3, "precondition: {first:?}");

    // Run 2 on the SAME pool: one near-empty region. It must read its
    // own region and busy time, not run 1's on top.
    telemetry::enable();
    egraph_parallel::parallel_for(0..1_000, 64, |_r| {
        std::hint::black_box(0u64);
    });
    telemetry::disable();
    let second = telemetry::snapshot();
    assert_eq!(second.regions, 1, "regions must reset between windows");
    assert!(
        second.total_busy_seconds() < first.total_busy_seconds(),
        "busy seconds must reset between windows: {first:?} then {second:?}"
    );
}
