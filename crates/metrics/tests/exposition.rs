//! Prometheus text exposition conformance tests: label escaping,
//! histogram bucket cumulativity + `+Inf`, and counter monotonicity
//! across scrapes under concurrent increments.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use egraph_metrics::{Histogram, MetricsRegistry};

/// Pull the value of the first sample line for `name{...labels...}`.
fn sample_value(text: &str, prefix: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("no sample starting with `{prefix}` in:\n{text}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

#[test]
fn label_values_escape_quotes_backslashes_newlines() {
    let r = MetricsRegistry::new();
    r.counter_with_labels(
        "weird_total",
        "weird labels",
        &[
            ("quote", "say \"hi\""),
            ("slash", r"C:\graphs"),
            ("newline", "two\nlines"),
        ],
    )
    .add(7);
    let text = r.render();
    let line = text
        .lines()
        .find(|l| l.starts_with("weird_total{"))
        .expect("sample line");
    assert!(
        line.contains(r#"quote="say \"hi\"""#),
        "quotes must be escaped: {line}"
    );
    assert!(
        line.contains(r#"slash="C:\\graphs""#),
        "backslashes must be escaped: {line}"
    );
    assert!(
        line.contains(r#"newline="two\nlines""#),
        "newlines must be escaped to literal \\n: {line}"
    );
    assert!(line.ends_with(" 7"), "value preserved: {line}");
    assert!(
        !line.contains('\n') || line.lines().count() == 1,
        "sample must stay on one physical line"
    );
}

#[test]
fn help_text_escapes_newlines_and_backslashes() {
    let r = MetricsRegistry::new();
    r.counter("h_total", "first\nsecond \\ third").add(1);
    let text = r.render();
    assert!(
        text.contains("# HELP h_total first\\nsecond \\\\ third"),
        "HELP escaping:\n{text}"
    );
}

#[test]
fn histogram_buckets_are_cumulative_and_inf_terminated() {
    let r = MetricsRegistry::new();
    let h = r.histogram_with_bounds("lat_seconds", "latency", &[], vec![0.5, 1.0, 2.0, 4.0]);
    for v in [0.1, 0.4, 0.9, 1.5, 3.0, 3.5, 99.0] {
        h.observe(v);
    }
    let text = r.render();
    let b = |le: &str| sample_value(&text, &format!("lat_seconds_bucket{{le=\"{le}\"}}"));
    assert_eq!(b("0.5"), 2.0);
    assert_eq!(b("1"), 3.0);
    assert_eq!(b("2"), 4.0);
    assert_eq!(b("4"), 6.0);
    assert_eq!(b("+Inf"), 7.0, "+Inf bucket equals total count");
    // Cumulativity: every bucket ≥ the previous one.
    let mut prev = 0.0;
    for le in ["0.5", "1", "2", "4", "+Inf"] {
        let v = b(le);
        assert!(v >= prev, "bucket le={le} regressed: {v} < {prev}");
        prev = v;
    }
    assert_eq!(sample_value(&text, "lat_seconds_count"), 7.0);
    let sum: f64 = [0.1, 0.4, 0.9, 1.5, 3.0, 3.5, 99.0].iter().sum();
    assert!((sample_value(&text, "lat_seconds_sum") - sum).abs() < 1e-9);
}

#[test]
fn histogram_observation_above_all_bounds_only_counts_in_inf() {
    let r = MetricsRegistry::new();
    let h = r.histogram_with_bounds("big", "big values", &[], vec![1.0]);
    h.observe(1e12);
    let text = r.render();
    assert_eq!(sample_value(&text, "big_bucket{le=\"1\"}"), 0.0);
    assert_eq!(sample_value(&text, "big_bucket{le=\"+Inf\"}"), 1.0);
}

#[test]
fn counters_monotonic_across_scrapes_under_concurrent_increments() {
    let r = Arc::new(MetricsRegistry::new());
    let c = r.counter("busy_total", "incremented concurrently");
    let h = r.histogram_with_bounds("busy_seconds", "hist", &[], Histogram::log2_bounds(-4, 4));
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let c = c.clone();
            let h = h.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    h.observe((i as f64 + 1.0) * 0.1);
                    n += 1;
                }
                n
            })
        })
        .collect();

    let mut prev_counter = -1.0;
    let mut prev_inf = -1.0;
    for _ in 0..50 {
        let text = r.render();
        let v = sample_value(&text, "busy_total ");
        let inf = sample_value(&text, "busy_seconds_bucket{le=\"+Inf\"}");
        let count = sample_value(&text, "busy_seconds_count");
        assert!(
            v >= prev_counter,
            "counter went backwards across scrapes: {v} < {prev_counter}"
        );
        assert!(
            inf >= prev_inf,
            "+Inf bucket went backwards across scrapes: {inf} < {prev_inf}"
        );
        assert!(
            inf <= count + 1e-9 && count <= inf + 1e-9,
            "+Inf bucket must equal count: {inf} vs {count}"
        );
        prev_counter = v;
        prev_inf = inf;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let text = r.render();
    assert_eq!(sample_value(&text, "busy_total ") as u64, total);
    assert_eq!(sample_value(&text, "busy_seconds_count") as u64, total);
}

#[test]
fn scrape_time_callbacks_render_as_their_kind() {
    let r = MetricsRegistry::new();
    r.counter_fn("cb_total", "callback counter", || 42.0);
    r.gauge_fn("cb_gauge", "callback gauge", || -1.5);
    let text = r.render();
    assert!(text.contains("# TYPE cb_total counter"));
    assert!(text.contains("cb_total 42"));
    assert!(text.contains("# TYPE cb_gauge gauge"));
    assert!(text.contains("cb_gauge -1.5"));
}

#[test]
fn registering_a_callback_again_replaces_it() {
    let r = MetricsRegistry::new();
    r.counter_fn("cb_total", "first run", || 1.0);
    r.gauge_fn("cb_gauge", "first run", || 1.0);
    r.counter_fn("cb_total", "second run", || 2.0);
    r.gauge_fn("cb_gauge", "second run", || 2.0);
    let text = r.render();
    assert_eq!(text.matches("# TYPE cb_total counter").count(), 1);
    assert!(text.contains("cb_total 2\n"), "{text}");
    assert!(text.contains("cb_gauge 2\n"), "{text}");
}
