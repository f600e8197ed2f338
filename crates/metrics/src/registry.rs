//! Process-global metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by `(name, labels)`.
//!
//! Registration takes a slow-path mutex; the returned handles are `Arc`s
//! whose hot-path operations ([`Counter::inc`], [`Histogram::observe`])
//! touch only the caller's padded shard. Scrapes walk the registry under
//! the same mutex but read the shards lock-free, so a live scrape never
//! blocks a worker mid-increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sharded::{ShardedF64, ShardedU64};

/// Unit hint recorded per entry; [`MetricsRegistry::lint_names`] uses it
/// to enforce the `_seconds` suffix convention on duration histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    None,
    Bytes,
    Seconds,
}

/// A monotonically non-decreasing counter.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<ShardedU64>,
}

impl Counter {
    fn new() -> Self {
        Self {
            inner: Arc::new(ShardedU64::new()),
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.inner.add(1);
    }

    /// Increment by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.inner.add(delta);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.inner.total()
    }
}

/// A gauge: a value that can move in either direction. Stored as `f64`
/// bits in a single atomic (gauges are set from one place, not
/// hot-path-incremented by many workers).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram with fixed upper-bound buckets plus an implicit `+Inf`
/// terminal bucket. Observations land in the caller's padded shard.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    /// Finite upper bounds, strictly increasing. The `+Inf` bucket is
    /// implicit (its cumulative count equals the total count).
    bounds: Vec<f64>,
    /// `bounds.len()` sharded per-bucket counts (non-cumulative).
    buckets: Vec<ShardedU64>,
    count: ShardedU64,
    sum: ShardedF64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let buckets = bounds.iter().map(|_| ShardedU64::new()).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets,
                count: ShardedU64::new(),
                sum: ShardedF64::new(),
            }),
        }
    }

    /// Log-scale bucket bounds `2^lo ..= 2^hi`, the registry's standard
    /// shape. `log2_buckets(-20, 4)` spans ~1 µs to 16 s for seconds.
    pub fn log2_bounds(lo: i32, hi: i32) -> Vec<f64> {
        (lo..=hi).map(|e| (e as f64).exp2()).collect()
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let h = &*self.inner;
        for (i, bound) in h.bounds.iter().enumerate() {
            if value <= *bound {
                h.buckets[i].add(1);
                break;
            }
        }
        // Values above every finite bound land only in +Inf (the count).
        h.count.add(1);
        h.sum.add(value);
    }

    /// Finite bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.inner.bounds
    }

    /// Cumulative counts per finite bound, followed by the `+Inf` total.
    pub fn cumulative_counts(&self) -> (Vec<u64>, u64) {
        let mut acc = 0u64;
        let cumulative = self
            .inner
            .buckets
            .iter()
            .map(|b| {
                acc += b.total();
                acc
            })
            .collect();
        (cumulative, self.inner.count.total())
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.inner.sum.total()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.total()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts,
    /// Prometheus `histogram_quantile` style: find the bucket where the
    /// cumulative count first reaches `q * count` and interpolate
    /// linearly inside it (the first bucket's lower bound is `0`).
    ///
    /// Returns `None` for an empty histogram or a `q` outside `[0, 1]`.
    /// Observations above every finite bound cap the estimate at the
    /// highest finite bound, so the error is one bucket's width — with
    /// the standard log2 bounds, a factor of at most 2.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if !(0.0..=1.0).contains(&q) {
            return None;
        }
        let (cumulative, total) = self.cumulative_counts();
        if total == 0 {
            return None;
        }
        // A zero rank would select the first bucket even when it is
        // empty; insist on at least a sliver of one observation.
        let rank = (q * total as f64).max(f64::MIN_POSITIVE);
        let bounds = self.bounds();
        let mut prev_cum = 0u64;
        for (i, &cum) in cumulative.iter().enumerate() {
            if (cum as f64) >= rank {
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let upper = bounds[i];
                let in_bucket = (cum - prev_cum) as f64;
                let frac = (rank - prev_cum as f64) / in_bucket;
                return Some(lower + (upper - lower) * frac);
            }
            prev_cum = cum;
        }
        // The rank falls in the implicit +Inf bucket.
        bounds.last().copied()
    }
}

/// What a registered entry measures and how to read it at scrape time.
pub(crate) enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// Counter whose value is computed at scrape time (e.g. reading the
    /// pool telemetry snapshot). Must be monotonically non-decreasing.
    CounterFn(Box<dyn Fn() -> f64 + Send + Sync>),
    /// Gauge computed at scrape time.
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
}

pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) help: String,
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) unit: Unit,
    pub(crate) instrument: Instrument,
}

impl Entry {
    pub(crate) fn type_str(&self) -> &'static str {
        match self.instrument {
            Instrument::Counter(_) | Instrument::CounterFn(_) => "counter",
            Instrument::Gauge(_) | Instrument::GaugeFn(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// A collection of metrics rendered together by one `/metrics` endpoint.
pub struct MetricsRegistry {
    pub(crate) entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    pub const fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn position(entries: &[Entry], name: &str, labels: &[(String, String)]) -> Option<usize> {
        entries
            .iter()
            .position(|e| e.name == name && e.labels == labels)
    }

    /// Register (or fetch the existing) counter for `(name, labels)`.
    ///
    /// # Panics
    /// If the `(name, labels)` pair is already registered as a different
    /// metric kind.
    pub fn counter_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = own_labels(labels);
        let mut entries = self.entries.lock();
        if let Some(i) = Self::position(&entries, name, &labels) {
            match &entries[i].instrument {
                Instrument::Counter(c) => return c.clone(),
                _ => panic!(
                    "metric `{name}` already registered as {}",
                    entries[i].type_str()
                ),
            }
        }
        let counter = Counter::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            unit: Unit::None,
            instrument: Instrument::Counter(counter.clone()),
        });
        counter
    }

    /// Register (or fetch the existing) unlabelled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with_labels(name, help, &[])
    }

    /// Register (or fetch the existing) gauge for `(name, labels)`.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = own_labels(labels);
        let mut entries = self.entries.lock();
        if let Some(i) = Self::position(&entries, name, &labels) {
            match &entries[i].instrument {
                Instrument::Gauge(g) => return g.clone(),
                _ => panic!(
                    "metric `{name}` already registered as {}",
                    entries[i].type_str()
                ),
            }
        }
        let gauge = Gauge::new();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            unit: Unit::None,
            instrument: Instrument::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Register (or fetch the existing) unlabelled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with_labels(name, help, &[])
    }

    /// Register (or fetch the existing) histogram with explicit finite
    /// bucket bounds (strictly increasing).
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: Vec<f64>,
    ) -> Histogram {
        self.histogram_with_unit(name, help, labels, bounds, Unit::None)
    }

    fn histogram_with_unit(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: Vec<f64>,
        unit: Unit,
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram `{name}`: bucket bounds must be strictly increasing"
        );
        let labels = own_labels(labels);
        let mut entries = self.entries.lock();
        if let Some(i) = Self::position(&entries, name, &labels) {
            match &entries[i].instrument {
                Instrument::Histogram(h) => return h.clone(),
                _ => panic!(
                    "metric `{name}` already registered as {}",
                    entries[i].type_str()
                ),
            }
        }
        let histogram = Histogram::new(bounds);
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            unit,
            instrument: Instrument::Histogram(histogram.clone()),
        });
        histogram
    }

    /// Register (or fetch the existing) histogram with the standard
    /// log2 seconds buckets (~1 µs to 16 s).
    pub fn histogram_seconds(&self, name: &str, help: &str) -> Histogram {
        self.histogram_seconds_with_labels(name, help, &[])
    }

    /// Labelled variant of [`MetricsRegistry::histogram_seconds`] — one
    /// series per label set, the shape the serve engine uses for its
    /// per-algo / per-layout lifecycle-stage histograms.
    pub fn histogram_seconds_with_labels(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        self.histogram_with_unit(
            name,
            help,
            labels,
            Histogram::log2_bounds(-20, 4),
            Unit::Seconds,
        )
    }

    /// Register a counter whose value is computed at scrape time. The
    /// callback must be monotonically non-decreasing. If the
    /// `(name, labels=[])` pair exists, the new callback replaces the
    /// old one, so a source registered again (a second run in one
    /// process) is read, not the first registration's.
    pub fn counter_fn<F>(&self, name: &str, help: &str, f: F)
    where
        F: Fn() -> f64 + Send + Sync + 'static,
    {
        self.set_fn(name, help, Instrument::CounterFn(Box::new(f)));
    }

    /// Register a gauge whose value is computed at scrape time,
    /// replacing an existing callback like
    /// [`MetricsRegistry::counter_fn`].
    pub fn gauge_fn<F>(&self, name: &str, help: &str, f: F)
    where
        F: Fn() -> f64 + Send + Sync + 'static,
    {
        self.set_fn(name, help, Instrument::GaugeFn(Box::new(f)));
    }

    fn set_fn(&self, name: &str, help: &str, instrument: Instrument) {
        let mut entries = self.entries.lock();
        match Self::position(&entries, name, &[]) {
            Some(i) => entries[i].instrument = instrument,
            None => entries.push(Entry {
                name: name.to_string(),
                help: help.to_string(),
                labels: Vec::new(),
                unit: Unit::None,
                instrument,
            }),
        }
    }

    /// Check every registered entry against the repo's metric-naming
    /// conventions and return one human-readable violation per offense:
    ///
    /// - metric names and label keys match the Prometheus charset
    ///   (`[a-zA-Z_:][a-zA-Z0-9_:]*`, no `:` in label keys);
    /// - counters (stored and scrape-time) end in `_total`;
    /// - histograms observing seconds end in `_seconds`;
    /// - the suffixes are honest the other way around too: gauges and
    ///   histograms must not end in `_total` (that suffix promises
    ///   monotonic counter semantics to recording rules), and a
    ///   histogram not observing seconds must not claim `_seconds`.
    ///
    /// An empty vec means the registry is clean; the conventions test
    /// asserts exactly that after registering every built-in family.
    pub fn lint_names(&self) -> Vec<String> {
        fn valid_name(name: &str, allow_colon: bool) -> bool {
            !name.is_empty()
                && name.chars().enumerate().all(|(i, c)| {
                    c.is_ascii_alphabetic()
                        || c == '_'
                        || (allow_colon && c == ':')
                        || (i > 0 && c.is_ascii_digit())
                })
        }
        let entries = self.entries.lock();
        let mut violations = Vec::new();
        for e in entries.iter() {
            if !valid_name(&e.name, true) {
                violations.push(format!("`{}`: invalid metric name", e.name));
            }
            for (key, _) in &e.labels {
                if !valid_name(key, false) {
                    violations.push(format!("`{}`: invalid label key `{key}`", e.name));
                }
            }
            match &e.instrument {
                Instrument::Counter(_) | Instrument::CounterFn(_) => {
                    if !e.name.ends_with("_total") {
                        violations.push(format!("`{}`: counter must end in `_total`", e.name));
                    }
                }
                Instrument::Histogram(_) => {
                    if e.unit == Unit::Seconds && !e.name.ends_with("_seconds") {
                        violations.push(format!(
                            "`{}`: seconds histogram must end in `_seconds`",
                            e.name
                        ));
                    }
                    if e.unit != Unit::Seconds && e.name.ends_with("_seconds") {
                        violations.push(format!(
                            "`{}`: histogram is not observing seconds, drop `_seconds`",
                            e.name
                        ));
                    }
                    if e.name.ends_with("_total") {
                        violations
                            .push(format!("`{}`: histogram must not end in `_total`", e.name));
                    }
                }
                Instrument::Gauge(_) | Instrument::GaugeFn(_) => {
                    if e.name.ends_with("_total") {
                        violations.push(format!(
                            "`{}`: gauge must not end in `_total` (counters own that suffix)",
                            e.name
                        ));
                    }
                }
            }
        }
        violations
    }

    /// Render every registered metric in Prometheus text exposition
    /// format 0.0.4.
    pub fn render(&self) -> String {
        crate::expose::render(self)
    }

    /// Remove every registered metric. Intended for tests.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

static GLOBAL: MetricsRegistry = MetricsRegistry::new();

/// The process-global registry served by [`crate::serve`].
pub fn global() -> &'static MetricsRegistry {
    &GLOBAL
}

/// Map an arbitrary dotted counter name (e.g. `engine.edges_examined`)
/// to a valid Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`, with
/// every invalid character replaced by `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if valid { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_idempotent_registration() {
        let r = MetricsRegistry::new();
        let c1 = r.counter("requests_total", "requests");
        c1.add(3);
        let c2 = r.counter("requests_total", "requests");
        c2.inc();
        assert_eq!(c1.get(), 4);
        assert_eq!(c2.get(), 4);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = MetricsRegistry::new();
        let a = r.counter_with_labels("ops_total", "ops", &[("kind", "push")]);
        let b = r.counter_with_labels("ops_total", "ops", &[("kind", "pull")]);
        a.add(2);
        b.add(5);
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("x_total", "x");
        r.gauge("x_total", "x");
    }

    #[test]
    fn gauge_set_get() {
        let r = MetricsRegistry::new();
        let g = r.gauge("temp", "temperature");
        g.set(-3.5);
        assert_eq!(g.get(), -3.5);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with_bounds("lat", "latency", &[], vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let (cum, total) = h.cumulative_counts();
        assert_eq!(cum, vec![1, 2, 3]);
        assert_eq!(total, 4);
        assert!((h.sum() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn log2_bounds_shape() {
        let b = Histogram::log2_bounds(-2, 2);
        assert_eq!(b, vec![0.25, 0.5, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn quantile_interpolates_within_the_right_bucket() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with_bounds("q", "q", &[], vec![1.0, 2.0, 4.0, 8.0]);
        // 10 observations in (2, 4]: every quantile lands in that bucket.
        for _ in 0..10 {
            h.observe(3.0);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!((2.0..=4.0).contains(&est), "q={q} est={est}");
        }
        // The median of 10×3.0 + 10×7.0 sits at the boundary between the
        // two occupied buckets; p25 and p75 must stay inside their own.
        for _ in 0..10 {
            h.observe(7.0);
        }
        let p25 = h.quantile(0.25).unwrap();
        let p75 = h.quantile(0.75).unwrap();
        assert!((2.0..=4.0).contains(&p25), "p25={p25}");
        assert!((4.0..=8.0).contains(&p75), "p75={p75}");
    }

    #[test]
    fn quantile_edge_cases() {
        let r = MetricsRegistry::new();
        let h = r.histogram_with_bounds("qe", "qe", &[], vec![1.0, 2.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram");
        h.observe(0.5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        // Overflow observations cap at the highest finite bound.
        h.observe(1e9);
        assert_eq!(h.quantile(1.0), Some(2.0));
    }

    #[test]
    fn lint_names_flags_each_convention_violation() {
        let r = MetricsRegistry::new();
        r.counter("good_total", "ok");
        r.gauge("any_gauge_name", "gauges are free-form");
        r.histogram_seconds("good_seconds", "ok");
        r.histogram_with_bounds("raw_sizes", "unit-less is fine", &[], vec![1.0]);
        assert_eq!(r.lint_names(), Vec::<String>::new());

        r.counter("bad_counter", "missing _total");
        r.histogram_seconds_with_labels("bad_latency", "missing _seconds", &[("algo", "bfs")]);
        let violations = r.lint_names();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("bad_counter"));
        assert!(violations[1].contains("bad_latency"));
    }

    #[test]
    fn lint_names_flags_dishonest_suffixes() {
        // A gauge claiming `_total` masquerades as a counter.
        let r = MetricsRegistry::new();
        r.gauge("connections_total", "not actually monotonic");
        let violations = r.lint_names();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("connections_total"));

        // A unit-less histogram claiming `_seconds` lies about its unit;
        // one claiming `_total` lies about its kind.
        let r = MetricsRegistry::new();
        r.histogram_with_bounds("queue_depth_seconds", "depths", &[], vec![1.0, 8.0]);
        r.histogram_with_bounds("waves_total", "sizes", &[], vec![1.0, 8.0]);
        let violations = r.lint_names();
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("queue_depth_seconds"));
        assert!(violations[1].contains("waves_total"));
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(
            sanitize_metric_name("engine.edges_examined"),
            "engine_edges_examined"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("a9"), "a9");
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
