//! In-memory spans around every call the benchmark makes into a layer
//! of the product. Recorded from the benchmark's own files only: the
//! product carries no tracing for this harness.
//!
//! A span is `(layer, name, start, end, parent, request)`. Scoped spans
//! nest through a thread-local "current span"; spans that cross threads
//! (a query submitted on the generator thread and answered on a
//! collector thread) are recorded after the fact with [`Tracer::record`].
//! Spans stay in memory until the run ends, then go to a Chrome
//! trace-event file.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Dense id, `>= 1`.
    pub id: u64,
    /// Id of the span that caused this one; `0` for a root.
    pub parent: u64,
    /// Request identifier shared by every span of one request; `0` when
    /// the span belongs to no request.
    pub request: u64,
    /// The product layer the call went into (`storage`, `algo`, …) or
    /// `bench` for the harness's own grouping spans.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
    /// A small per-thread number, for the trace viewer's rows.
    pub thread: u64,
}

/// The span store. One per process ([`tracer`]).
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD_NO: Cell<u64> = const { Cell::new(0) };
}
static NEXT_THREAD_NO: AtomicU64 = AtomicU64::new(1);

fn thread_no() -> u64 {
    THREAD_NO.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD_NO.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The process-wide tracer (disabled until [`Tracer::set_enabled`]).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    /// Turns span recording on or off. Off, [`timed`] still measures but
    /// stores nothing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span with explicit endpoints and returns its
    /// id (`0` when disabled). `parent == 0` attaches it to the calling
    /// thread's current scoped span, if any.
    pub fn record(
        &self,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = if parent == 0 {
            CURRENT.with(Cell::get)
        } else {
            parent
        };
        self.store(id, parent, request, layer, name, start, end);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn store(
        &self,
        id: u64,
        parent: u64,
        request: u64,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            request,
            layer,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            thread: thread_no(),
        };
        self.spans().push(span);
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every recorded span out of the store.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Runs `f` as a scoped span of `layer` and returns its result with the
/// measured seconds. The time is measured either way; the span is
/// stored only while tracing is enabled, so traced and untraced runs
/// execute the same workload code.
pub fn timed<R>(layer: &'static str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = tracer();
    if !t.enabled() {
        let start = Instant::now();
        let r = f();
        return (r, start.elapsed().as_secs_f64());
    }
    // Reserve the id first so children recorded inside `f` can name
    // this span as their parent.
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(id));
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    CURRENT.with(|c| c.set(parent));
    t.store(id, parent, 0, layer, name, start, end);
    (r, (end - start).as_secs_f64())
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are merged first
/// and clipped to the parent). Returned in `spans` order, nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return duration;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = cursor.max(b);
            }
            duration - covered
        })
        .collect()
}

/// Self seconds summed per layer, sorted by layer name.
pub fn layer_self_seconds(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    use std::collections::BTreeMap;
    let mut by_layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let slot = by_layer.entry(span.layer).or_default();
        slot.0 += self_ns as f64 * 1e-9;
        slot.1 += 1;
    }
    by_layer
        .into_iter()
        .map(|(layer, (secs, count))| (layer, secs, count))
        .collect()
}

/// Writes `spans` as Chrome trace-event JSON (complete `"X"` events,
/// microsecond timestamps) — the same viewer the product's
/// `--timeline-out` files open in.
pub fn write_chrome_trace(mut w: impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(w, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{comma}",
            egraph_core::telemetry::json::string(&s.name),
            s.layer,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.thread,
            s.id,
            s.parent,
            s.request,
        )?;
    }
    writeln!(w, "],\"displayTimeUnit\":\"ms\"}}")?;
    w.flush()
}

/// Records the `trace.*` metrics of a traced run from its repetitions,
/// each `(seconds, was instrumented)`: the relative cost of the
/// instrumented repetitions over the plain ones interleaved with them,
/// and how many spans the run holds.
pub fn report_overhead(
    report: &mut crate::report::Report,
    repetitions: impl Iterator<Item = (f64, bool)> + Clone,
) {
    let side = |instrumented: bool| -> Vec<f64> {
        repetitions
            .clone()
            .filter(|r| r.1 == instrumented)
            .map(|r| r.0)
            .collect()
    };
    let (instrumented, plain) = (side(true), side(false));
    let (on, off) = (
        crate::stats::median(&instrumented),
        crate::stats::median(&plain),
    );
    let overhead = if off > 0.0 { on / off - 1.0 } else { 0.0 };
    let samples = instrumented.len().min(plain.len());
    if overhead >= MAX_OVERHEAD {
        report.notes.push(format!(
            "trace.overhead_frac {overhead:.3} >= {MAX_OVERHEAD}: per-layer numbers of this run are flagged"
        ));
    }
    report.set("trace.overhead_frac", overhead, samples);
    report.set("trace.spans", tracer().len() as f64, 1);
}

/// Tracing overhead above which a traced run's numbers are flagged.
pub const MAX_OVERHEAD: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64, layer: &'static str) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, 0, 100, "bench"),
            // Two overlapping children cover 10..60 once, not twice.
            span(2, 1, 10, 50, "storage"),
            span(3, 1, 40, 60, "algo"),
            // A child sticking out of its parent is clipped to it.
            span(4, 1, 90, 130, "algo"),
            // A grandchild only reduces its own parent.
            span(5, 2, 20, 30, "sort"),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 40, 10]);
        let by_layer = layer_self_seconds(&spans);
        let algo = by_layer.iter().find(|l| l.0 == "algo").unwrap();
        assert_eq!((algo.2, (algo.1 * 1e9).round() as u64), (2, 60));
    }

    #[test]
    fn childless_and_fully_covered_spans() {
        let spans = vec![span(1, 0, 5, 25, "bench"), span(2, 1, 5, 25, "algo")];
        assert_eq!(self_times(&spans), vec![0, 20]);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = vec![span(1, 0, 0, 2_000, "bench"), span(2, 1, 500, 900, "algo")];
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &spans).unwrap();
        let doc = egraph_core::telemetry::json::parse(std::str::from_utf8(&out).unwrap()).unwrap();
        let events = doc
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, v)| v.as_array())
            .unwrap();
        assert_eq!(events.len(), 2);
    }
}
