//! Per-worker timeline spans: who ran what, when, for how long.
//!
//! The pool's counters ([`crate::telemetry`]) answer "how much" —
//! regions, chunks, busy seconds. This module answers "when": every
//! [`ThreadPool`] owns a [`Timeline`] with one bounded track per
//! worker, sized when the pool is built, and instrumented code records
//! begin/end pairs for parallel regions, engine steps, and
//! pre-processing phases. The result can be exported as Chrome
//! trace-event JSON ([`chrome_trace_json`]), one process per pool, and
//! opened in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev)
//! to see the paper's push/pull step structure laid out on a per-worker
//! time axis.
//!
//! # Recording model
//!
//! * One relaxed load of the running pool's gate when its timeline is
//!   off (the same zero-cost gate contract as the counters).
//! * When on, a span guard captures its start; on drop it locks the
//!   current worker's track once and pushes the finished span.
//!
//! Tracks never wrap: when a track is full, further spans on that
//! worker are counted in [`Timeline::dropped_spans`] and discarded, so
//! a long run degrades to a truncated timeline instead of a corrupted
//! one.
//!
//! A span records on the pool that work started on its thread runs on:
//! the broadcasting pool inside a region, otherwise the pool installed
//! by [`crate::with_pool`], otherwise the global pool. Its track is the
//! current worker id; code running outside any region (the calling
//! thread between regions) records onto track 0, which is also the
//! calling thread's worker id inside a region — one thread, one track.
//!
//! # Consistency
//!
//! [`Timeline::snapshot`] and [`chrome_trace_json`] are meant to run
//! when no instrumented work is in flight on the pool (after the
//! parallel joins), exactly like the counters' snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::ThreadPool;

/// Spans retained per worker track; later spans are dropped (and
/// counted) once a track is full.
pub const TRACK_CAPACITY: usize = 4096;

/// What a recorded span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One worker's share of a fork-join parallel region.
    Region,
    /// One engine computation step (an iteration of an algorithm
    /// driver); its detail string carries the push/pull direction.
    Step,
    /// A coarse run phase: load, pre-processing, store, ...
    Phase,
}

impl SpanKind {
    /// The category label used in exported traces.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Region => "region",
            SpanKind::Step => "step",
            SpanKind::Phase => "phase",
        }
    }
}

/// The span tracks of one pool, one per worker.
#[derive(Debug)]
pub struct Timeline {
    enabled: AtomicBool,
    /// Span start offsets are measured from this instant.
    origin: Instant,
    tracks: Box<[Mutex<Vec<SpanRecord>>]>,
    dropped: AtomicU64,
}

impl Timeline {
    /// An off timeline with one empty track per worker.
    pub(crate) fn new(workers: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            tracks: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turns span recording on. Off by default.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns span recording off (recorded spans are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Discards every recorded span. Call between runs, with no
    /// instrumented work in flight.
    pub fn reset(&self) {
        for track in self.tracks.iter() {
            track.lock().clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Spans discarded because their worker's track was full.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out every recorded span, ordered by worker then start
    /// time.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .tracks
            .iter()
            .flat_map(|track| track.lock().clone())
            .collect();
        out.sort_by_key(|s| (s.worker, s.start_nanos));
        out
    }

    /// Starts a span on this timeline: an inert guard when it is off.
    #[inline]
    pub(crate) fn span(
        &self,
        kind: SpanKind,
        name: &'static str,
        detail: &'static str,
    ) -> TimelineSpan {
        TimelineSpan(self.enabled().then(|| ActiveSpan {
            kind,
            name,
            detail,
            begun: Instant::now(),
        }))
    }

    fn record(&self, worker: usize, span: ActiveSpan) {
        let duration_nanos = span.begun.elapsed().as_nanos() as u64;
        let mut track = self.tracks[worker].lock();
        if track.len() >= TRACK_CAPACITY {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        track.push(SpanRecord {
            worker,
            kind: span.kind,
            name: span.name,
            detail: span.detail,
            start_nanos: span.begun.saturating_duration_since(self.origin).as_nanos() as u64,
            duration_nanos,
        });
    }
}

/// Starts a span on the running pool's timeline (see the module docs
/// for which pool and track). Returns a guard that records the span
/// when dropped; a pool whose timeline is off hands out an inert guard
/// at the cost of one relaxed load.
///
/// `name` labels the span ("region", "pagerank_step", "load", ...);
/// `detail` carries an optional qualifier — the engine's push/pull
/// direction for steps — and may be empty.
#[inline]
pub fn span(kind: SpanKind, name: &'static str, detail: &'static str) -> TimelineSpan {
    match crate::pool::current_shared() {
        Some(shared) => shared.timeline.span(kind, name, detail),
        None => TimelineSpan(None),
    }
}

#[derive(Debug)]
struct ActiveSpan {
    kind: SpanKind,
    name: &'static str,
    detail: &'static str,
    begun: Instant,
}

/// Guard returned by [`span`]; records the span on drop, onto the
/// running pool's track of the current worker.
#[derive(Debug)]
pub struct TimelineSpan(Option<ActiveSpan>);

impl Drop for TimelineSpan {
    fn drop(&mut self) {
        let Some(span) = self.0.take() else { return };
        if let Some(shared) = crate::pool::current_shared() {
            let worker = crate::current_worker_index().unwrap_or(0);
            shared.timeline.record(worker, span);
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Track (worker id) the span was recorded on.
    pub worker: usize,
    /// What the span covers.
    pub kind: SpanKind,
    /// Span label.
    pub name: &'static str,
    /// Optional qualifier (push/pull direction for steps); may be empty.
    pub detail: &'static str,
    /// Start offset from the timeline origin, in nanoseconds.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub duration_nanos: u64,
}

/// Renders the spans of `pools` as one Chrome trace-event JSON document
/// (the `{"traceEvents": [...]}` format understood by `chrome://tracing`
/// and Perfetto). Pool `i` is process `i + 1`, named by its label, and
/// each of its workers is a track labelled "worker 0", "worker 1", ...;
/// every span is one `ph:"X"` complete event on its worker's `tid`,
/// timed from the earliest pool's origin. Step spans carry their
/// push/pull direction under `args`.
pub fn chrome_trace_json(pools: &[(&str, &ThreadPool)]) -> String {
    let Some(base) = pools.iter().map(|(_, p)| p.timeline().origin).min() else {
        return "{\"traceEvents\":[]}".to_string();
    };
    let mut events = Vec::new();
    for (index, (label, pool)) in pools.iter().enumerate() {
        let pid = index + 1;
        let timeline = pool.timeline();
        let offset = timeline.origin.duration_since(base).as_nanos() as u64;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(label)
        ));
        for worker in 0..timeline.tracks.len() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{worker},\
                 \"args\":{{\"name\":\"worker {worker}\"}}}}"
            ));
        }
        for span in timeline.snapshot() {
            let ts = (offset + span.start_nanos) as f64 / 1e3;
            let dur = span.duration_nanos as f64 / 1e3;
            let mut event = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{ts:.3},\"dur\":{dur:.3}",
                escape(span.name),
                span.kind.category(),
                span.worker,
            );
            if !span.detail.is_empty() {
                let key = match span.kind {
                    SpanKind::Step => "direction",
                    _ => "detail",
                };
                event.push_str(&format!(
                    ",\"args\":{{\"{key}\":\"{}\"}}",
                    escape(span.detail)
                ));
            }
            event.push('}');
            events.push(event);
        }
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// Minimal JSON string escaping; span labels are static identifiers,
/// but a label containing a quote must not corrupt the document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let pool = ThreadPool::new(2);
        crate::with_pool(&pool, || drop(span(SpanKind::Step, "off", "")));
        assert!(pool.timeline().snapshot().is_empty());
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn a_full_track_drops_and_counts() {
        let pool = ThreadPool::new(1);
        pool.timeline().enable();
        crate::with_pool(&pool, || {
            for _ in 0..TRACK_CAPACITY + 3 {
                drop(span(SpanKind::Step, "s", ""));
            }
        });
        assert_eq!(pool.timeline().snapshot().len(), TRACK_CAPACITY);
        assert_eq!(pool.timeline().dropped_spans(), 3);
        pool.timeline().reset();
        assert!(pool.timeline().snapshot().is_empty());
        assert_eq!(pool.timeline().dropped_spans(), 0);
    }

    #[test]
    fn span_kinds_name_their_category() {
        assert_eq!(SpanKind::Region.category(), "region");
        assert_eq!(SpanKind::Step.category(), "step");
        assert_eq!(SpanKind::Phase.category(), "phase");
    }
}
