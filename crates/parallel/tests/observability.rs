//! Integration tests for the observability surface: timeline spans and
//! the pool counters (regions, per-worker busy time).
//!
//! Every test builds its own 4-worker pool and reads that pool's
//! instruments, so the tests share no state and run in parallel.

use egraph_parallel::timeline::{self, SpanKind};
use egraph_parallel::{with_pool, ThreadPool};

#[test]
fn timeline_records_region_spans_per_worker() {
    let pool = ThreadPool::new(4);
    pool.timeline().enable();
    with_pool(&pool, || {
        egraph_parallel::parallel_for(0..100_000, 1024, |_r| {
            std::hint::black_box(0u64);
        });
        let _step = timeline::span(SpanKind::Step, "test_step", "push");
        egraph_parallel::parallel_for(0..10_000, 1024, |_r| {});
    });
    pool.timeline().disable();

    let spans = pool.timeline().snapshot();
    let regions: Vec<_> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Region)
        .collect();
    // Two parallel regions ran on a 4-thread pool: every worker logged
    // one region span per region it executed.
    assert_eq!(regions.len(), 8, "{regions:?}");
    for worker in 0..4 {
        assert_eq!(regions.iter().filter(|s| s.worker == worker).count(), 2);
    }
    let step = spans
        .iter()
        .find(|s| s.kind == SpanKind::Step && s.name == "test_step")
        .expect("step span recorded");
    assert_eq!(step.detail, "push");
    assert_eq!(step.worker, 0);
    assert_eq!(pool.timeline().dropped_spans(), 0);
}

#[test]
fn spans_record_on_the_pool_that_ran_them() {
    let (wide, narrow) = (ThreadPool::new(4), ThreadPool::new(2));
    wide.timeline().enable();
    narrow.timeline().enable();
    with_pool(&wide, || {
        egraph_parallel::parallel_for(0..4_096, 16, |_r| {})
    });
    with_pool(&narrow, || {
        let _step = timeline::span(SpanKind::Step, "narrow_step", "pull");
        egraph_parallel::parallel_for(0..4_096, 16, |_r| {});
    });
    let region_workers = |pool: &ThreadPool| -> Vec<usize> {
        let spans = pool.timeline().snapshot();
        spans
            .iter()
            .filter(|s| s.kind == SpanKind::Region)
            .map(|s| s.worker)
            .collect()
    };
    // One region each, one span per worker of the pool that ran it.
    assert_eq!(region_workers(&wide), [0, 1, 2, 3]);
    assert_eq!(region_workers(&narrow), [0, 1]);
    assert!(wide
        .timeline()
        .snapshot()
        .iter()
        .all(|s| s.name != "narrow_step"));
}

#[test]
fn chrome_trace_export_has_a_process_per_pool() {
    let (first, second) = (ThreadPool::new(4), ThreadPool::new(2));
    first.timeline().enable();
    second.timeline().enable();
    with_pool(&first, || {
        let _step = timeline::span(SpanKind::Step, "export_step", "pull");
        egraph_parallel::parallel_for(0..10_000, 512, |_r| {});
    });
    with_pool(&second, || {
        egraph_parallel::parallel_for(0..10_000, 512, |_r| {})
    });

    let json = timeline::chrome_trace_json(&[("first pool", &first), ("second pool", &second)]);
    // Shape checks against the Chrome trace-event format: a single
    // traceEvents array, a named process per pool, thread-name metadata
    // per worker track, "X" complete events, and the push/pull
    // annotation on step spans.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    for (pid, name, workers) in [(1, "first pool", 4), (2, "second pool", 2)] {
        assert!(json.contains(&format!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}"
        )));
        for worker in 0..workers {
            assert!(
                json.contains(&format!(
                    "\"pid\":{pid},\"tid\":{worker},\"args\":{{\"name\":\"worker {worker}\"}}"
                )),
                "missing thread_name metadata for worker {worker} of pool {pid}"
            );
        }
    }
    assert!(
        !json.contains("\"pid\":2,\"tid\":2"),
        "the second pool has two tracks"
    );
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("\"cat\":\"region\""));
    assert!(json.contains("\"name\":\"export_step\""));
    assert!(json.contains("\"args\":{\"direction\":\"pull\"}"));
    assert!(json.contains("\"ts\":"));
    assert!(json.contains("\"dur\":"));
}

/// A `parallel_for` whose real work all sits in the first quarter of
/// the range: uneven chunk costs, as on a power-law graph.
fn skewed_parallel_for(pool: &ThreadPool) {
    let n = 4_096;
    with_pool(pool, || {
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
        })
    });
}

#[test]
fn skewed_workload_shows_up_in_busy_time_and_imbalance() {
    let pool = ThreadPool::new(4);
    pool.counters().enable();
    skewed_parallel_for(&pool);
    pool.counters().disable();

    let snap = pool.counters().snapshot();
    assert_eq!(snap.busy_seconds.len(), 4);
    assert_eq!(snap.regions, 1);
    assert!(snap.load_imbalance() >= 1.0, "{snap:?}");
    assert!(snap.total_busy_seconds() > 0.0, "{snap:?}");
}

#[test]
fn enable_opens_a_fresh_window_after_a_busy_one() {
    let pool = ThreadPool::new(4);

    // Run 1: three skewed regions. The pool is persistent (and reusable
    // after panics), so these counts would survive into the next run if
    // enable() did not open a fresh window.
    pool.counters().enable();
    for _ in 0..3 {
        skewed_parallel_for(&pool);
    }
    pool.counters().disable();
    let first = pool.counters().snapshot();
    assert_eq!(first.regions, 3, "precondition: {first:?}");

    // Run 2 on the SAME pool: one near-empty region. It must read its
    // own region and busy time, not run 1's on top.
    pool.counters().enable();
    with_pool(&pool, || {
        egraph_parallel::parallel_for(0..1_000, 64, |_r| {
            std::hint::black_box(0u64);
        })
    });
    pool.counters().disable();
    let second = pool.counters().snapshot();
    assert_eq!(second.regions, 1, "regions must reset between windows");
    assert!(
        second.total_busy_seconds() < first.total_busy_seconds(),
        "busy seconds must reset between windows: {first:?} then {second:?}"
    );
}
