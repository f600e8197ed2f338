//! Run-wide telemetry: counters, per-iteration records and phase
//! profiles behind one recording interface.
//!
//! The paper's central methodological claim is that graph systems must
//! be measured *end-to-end* (§1): load + pre-process + algorithm + store,
//! not just the kernel. This module is the machinery that makes those
//! measurements first-class: every engine driver and algorithm entry
//! point takes an [`ExecCtx`](crate::exec::ExecCtx) carrying one
//! [`Recorder`], which receives the run's phases, iterations and
//! counters, and a run can be serialized as one machine-readable JSON
//! [`RunTrace`] document in which every fact is recorded once.
//!
//! Three recorder implementations matter:
//!
//! * [`NullRecorder`] — the default; stores nothing (see the trait docs),
//! * [`TraceRecorder`] — collects everything for `--trace-out`,
//! * anything user-provided — the trait is public and object-safe; the
//!   engine holds it as `&dyn Recorder`.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use parking_lot::Mutex;

pub use egraph_perf::CounterKind;
use egraph_perf::{CounterReading, PerfCounters};

use egraph_parallel::telemetry::PoolSnapshot;

use crate::metrics::{DirectionDecision, IterStat, StepMode};

/// One entry of [`RunTrace::iterations`]: a computation step's
/// [`IterStat`], its index, and the hardware-counter deltas sampled over
/// that step's window (empty on hosts without counters and for
/// recorders built without [`TraceRecorder::with_hardware_counters`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceIteration {
    /// Zero-based step index.
    pub step: usize,
    /// What the step did.
    pub stat: IterStat,
    /// Hardware counter deltas over the step window, by canonical
    /// counter name.
    pub hardware: BTreeMap<String, f64>,
}

impl TraceIteration {
    /// Step `step` with no hardware samples.
    pub fn new(step: usize, stat: IterStat) -> Self {
        Self {
            step,
            stat,
            hardware: BTreeMap::new(),
        }
    }
}

/// Sink for run-wide telemetry: named counters, per-iteration records
/// and run phases.
///
/// # The `enabled()` contract
///
/// Engine drivers and algorithm entry points hold the recorder as a
/// trait object ([`ExecCtx`](crate::exec::ExecCtx)) and run the same
/// machine code whether or not anything is recorded. What keeps an
/// unrecorded run cheap is the call sites: they read `enabled()` once
/// per chunk of work, never per edge, and any work beyond calling the
/// sink methods (counter arithmetic, address math, allocation) must be
/// guarded by `if recorder.enabled()`.
pub trait Recorder: Sync {
    /// Whether this recorder stores anything. Instrumentation sites
    /// skip counter bookkeeping when `false`.
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the named counter.
    fn record_counter(&self, name: &'static str, delta: u64);

    /// Appends the record of computation step `step`.
    fn record_iteration(&self, step: usize, stat: &IterStat);

    /// Opens the window of run phase `name` (`"load"`, `"preprocess"`,
    /// ...); hand the returned start to [`end_phase`](Self::end_phase)
    /// when the phase ends. The default opens nothing, so a recorder
    /// that does not override the pair runs every phase unrecorded.
    /// [`ExecCtx::profile`](crate::exec::ExecCtx::profile) brackets a
    /// closure with the two calls.
    #[inline]
    fn begin_phase(&self, _name: &str) -> PhaseStart {
        PhaseStart(None)
    }

    /// Closes a window opened by [`begin_phase`](Self::begin_phase)
    /// and records the phase. The default records nothing.
    #[inline]
    fn end_phase(&self, _start: PhaseStart) {}
}

/// The open window of one run phase, from [`Recorder::begin_phase`].
/// Opaque: only [`TraceRecorder`] opens one, so a recorder of its own
/// records phases by forwarding the pair to a `TraceRecorder`.
#[derive(Debug)]
pub struct PhaseStart(Option<OpenPhase>);

#[derive(Debug)]
struct OpenPhase {
    name: String,
    hardware: Option<CounterReading>,
    alloc: egraph_metrics::alloc::PhaseWindow,
    started: Instant,
}

/// The recorder used when telemetry is off: `enabled()` is `false` and
/// every sink method does nothing; see the [`Recorder`] docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record_counter(&self, _name: &'static str, _delta: u64) {}

    #[inline]
    fn record_iteration(&self, _step: usize, _stat: &IterStat) {}
}

/// A recorder that collects everything into memory, for `--trace-out`
/// and the bench reporter: counters, iteration records and phase
/// profiles (wall time, memory accounting and, with counters, hardware
/// deltas).
///
/// Built with [`with_hardware_counters`](Self::with_hardware_counters)
/// it owns one group of hardware counters and reads every window from
/// it: a phase's from its [`begin_phase`](Recorder::begin_phase) to its
/// [`end_phase`](Recorder::end_phase), and step *n*'s from the previous
/// `record_iteration` call (or the start of the phase, or recorder
/// construction) to step *n*'s own call, which matches how the kernels
/// time their steps.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<TraceInner>,
    perf: Option<PerfCounters>,
}

#[derive(Debug, Default)]
struct TraceInner {
    iterations: Vec<TraceIteration>,
    counters: BTreeMap<&'static str, u64>,
    phases: Vec<PhaseProfile>,
    last_reading: Option<CounterReading>,
}

impl TraceRecorder {
    /// Creates an empty recorder; its phases and iterations carry empty
    /// hardware maps.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder that opens the hardware counters (never fails; see
    /// [`PerfCounters`]) and fills the hardware maps of every phase and
    /// iteration from them. Build it *before* the first parallel
    /// operation: the counters cover only threads spawned after they
    /// open (see the `egraph-perf` crate docs), which is how the lazily
    /// created worker pool gets counted.
    pub fn with_hardware_counters() -> Self {
        let counters = PerfCounters::open();
        Self {
            inner: Mutex::new(TraceInner {
                last_reading: Some(counters.reading()),
                ..TraceInner::default()
            }),
            perf: Some(counters),
        }
    }

    /// The counter kinds that actually opened, in canonical order;
    /// empty for [`new`](Self::new) or on a fully restricted host.
    pub fn available_counters(&self) -> Vec<CounterKind> {
        self.perf
            .as_ref()
            .map(PerfCounters::available_kinds)
            .unwrap_or_default()
    }

    /// The per-iteration records collected so far; their hardware maps
    /// are empty without
    /// [`with_hardware_counters`](Self::with_hardware_counters) or on
    /// restricted hosts.
    pub fn iterations(&self) -> Vec<TraceIteration> {
        self.inner.lock().iterations.clone()
    }

    /// The phase profiles collected so far, in the order the phases
    /// ended.
    pub fn phases(&self) -> Vec<PhaseProfile> {
        self.inner.lock().phases.clone()
    }

    /// Hardware counter deltas since `start`, by canonical name; empty
    /// without counters.
    fn hardware_since(&self, start: &CounterReading) -> BTreeMap<String, f64> {
        let Some(perf) = &self.perf else {
            return BTreeMap::new();
        };
        perf.delta_since(start)
            .iter()
            .map(|(kind, value)| (kind.name().to_string(), value as f64))
            .collect()
    }

    /// The counters collected so far.
    pub fn counters(&self) -> BTreeMap<String, f64> {
        self.inner
            .lock()
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v as f64))
            .collect()
    }
}

impl Recorder for TraceRecorder {
    fn record_counter(&self, name: &'static str, delta: u64) {
        *self.inner.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn record_iteration(&self, step: usize, stat: &IterStat) {
        let mut inner = self.inner.lock();
        let mut iteration = TraceIteration::new(step, *stat);
        if let Some(perf) = &self.perf {
            if let Some(prev) = &inner.last_reading {
                iteration.hardware = self.hardware_since(prev);
            }
            inner.last_reading = Some(perf.reading());
        }
        inner.iterations.push(iteration);
    }

    fn begin_phase(&self, name: &str) -> PhaseStart {
        // An iteration window never spans a phase boundary: the next
        // step's window opens with the phase.
        if let Some(perf) = &self.perf {
            self.inner.lock().last_reading = Some(perf.reading());
        }
        PhaseStart(Some(OpenPhase {
            name: name.to_string(),
            hardware: self.perf.as_ref().map(PerfCounters::reading),
            alloc: egraph_metrics::alloc::window(name),
            started: Instant::now(),
        }))
    }

    /// Records the phase's wall time, its memory accounting (allocator
    /// attribution when `egraph_metrics::alloc::TrackingAlloc` is
    /// installed, plus the end-of-phase RSS sample) and, with counters,
    /// its hardware deltas.
    fn end_phase(&self, start: PhaseStart) {
        let Some(open) = start.0 else {
            return;
        };
        let seconds = open.started.elapsed().as_secs_f64();
        let alloc = open.alloc.finish();
        let hardware = open
            .hardware
            .map(|reading| self.hardware_since(&reading))
            .unwrap_or_default();
        let profile = PhaseProfile {
            name: open.name,
            seconds,
            hardware,
            memory: Some(PhaseMemory {
                allocated_bytes: alloc.allocated_bytes,
                freed_bytes: alloc.freed_bytes,
                peak_bytes: alloc.peak_bytes,
                end_rss_bytes: egraph_metrics::alloc::rss_bytes().unwrap_or(0),
            }),
        };
        self.inner.lock().phases.push(profile);
    }
}

/// Per-phase profile: wall time plus the hardware counters and memory
/// measured over that phase's window — the one place a trace records
/// how long a phase took.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseProfile {
    /// Phase name (`"load"`, `"preprocess"`, `"algorithm"`, ...).
    pub name: String,
    /// Wall-clock seconds of the phase window.
    pub seconds: f64,
    /// Hardware counter deltas by canonical counter name (`"cycles"`,
    /// `"llc_load_misses"`, ...). Empty when the host exposes no usable
    /// counters — the graceful-degradation marker, not an error.
    pub hardware: BTreeMap<String, f64>,
    /// Memory accounting for the phase.
    pub memory: Option<PhaseMemory>,
}

/// Per-phase memory accounting: what the tracking allocator
/// attributed to the phase window plus an end-of-phase RSS sample.
///
/// When the binary does not install
/// `egraph_metrics::alloc::TrackingAlloc`, the three allocator fields
/// are zero while `end_rss_bytes` still carries the `/proc/self/statm`
/// fallback (itself zero where procfs is unavailable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseMemory {
    /// Heap bytes allocated during the phase window.
    pub allocated_bytes: u64,
    /// Heap bytes freed during the phase window.
    pub freed_bytes: u64,
    /// Peak total live heap bytes observed during the phase window.
    pub peak_bytes: u64,
    /// Resident set size sampled when the phase ended.
    pub end_rss_bytes: u64,
}

impl PhaseProfile {
    /// The measured LLC miss ratio `llc_load_misses / llc_loads`, when
    /// both hardware counters were recorded and any loads happened.
    pub fn hardware_llc_miss_ratio(&self) -> Option<f64> {
        let loads = *self.hardware.get(CounterKind::LlcLoads.name())?;
        let misses = *self.hardware.get(CounterKind::LlcLoadMisses.name())?;
        // Zero or non-finite counters (a host that exposed the event
        // name but delivered nothing, or a corrupt trace) would make
        // the division meaningless — report "no ratio" instead of NaN.
        if loads > 0.0 && loads.is_finite() && misses.is_finite() {
            Some(misses / loads)
        } else {
            None
        }
    }
}

/// The machine-readable document describing one end-to-end run: its
/// per-phase profiles (the only record of phase time), per-iteration
/// records, and whatever counters the engine, pool and storage layers
/// reported.
///
/// Serializes to JSON ([`RunTrace::to_json`], schema [`TRACE_SCHEMA`])
/// and parses back from it ([`RunTrace::from_json`]). A document
/// declaring any other schema tag is refused with
/// [`TraceError::UnsupportedSchema`]: re-export it with the build that
/// wrote it or re-run the measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// The schema tag of the document: [`TRACE_SCHEMA`], the one tag
    /// this build writes and reads.
    pub schema: String,
    /// Algorithm name (e.g. `"bfs"`).
    pub algorithm: String,
    /// Free-form run configuration (layout, flow, sync, threads, …).
    pub config: BTreeMap<String, String>,
    /// One record per computation step, with its per-step hardware
    /// counter deltas.
    pub iterations: Vec<TraceIteration>,
    /// Named counters from all layers (engine, pool, storage).
    pub counters: BTreeMap<String, f64>,
    /// Per-phase profiles, in the order the phases ran.
    pub phases: Vec<PhaseProfile>,
}

impl Default for RunTrace {
    fn default() -> Self {
        Self {
            schema: TRACE_SCHEMA.to_string(),
            algorithm: String::new(),
            config: BTreeMap::new(),
            iterations: Vec::new(),
            counters: BTreeMap::new(),
            phases: Vec::new(),
        }
    }
}

/// Schema tag of every trace this version writes, and the only one it
/// reads.
pub const TRACE_SCHEMA: &str = "egraph-trace/5";

/// Error produced when parsing a trace back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The document is not a structurally valid trace.
    Malformed(String),
    /// The document declared a schema tag other than [`TRACE_SCHEMA`]
    /// (an older or a future generation); carries the offending tag.
    UnsupportedSchema(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed(msg) => write!(f, "invalid trace: {msg}"),
            TraceError::UnsupportedSchema(tag) => write!(
                f,
                "unsupported trace schema '{tag}' (this build reads {TRACE_SCHEMA})"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl RunTrace {
    /// Creates an empty trace for `algorithm`.
    pub fn new(algorithm: impl Into<String>) -> Self {
        Self {
            algorithm: algorithm.into(),
            ..Self::default()
        }
    }

    /// Merges everything a [`TraceRecorder`] collected into this trace:
    /// its phases, iterations and counters.
    pub fn absorb(&mut self, recorder: &TraceRecorder) {
        self.phases.extend(recorder.phases());
        self.iterations.extend(recorder.iterations());
        self.counters.extend(recorder.counters());
    }

    /// Writes the pool's counters (`pool.regions`, `pool.chunks`,
    /// `pool.workers`, `pool.busy_seconds_total`, `pool.load_imbalance`)
    /// from one snapshot: the one set every trace carries.
    pub fn absorb_pool(&mut self, pool: &PoolSnapshot) {
        for (name, value) in [
            ("pool.regions", pool.regions as f64),
            ("pool.chunks", pool.chunks as f64),
            ("pool.workers", pool.busy_seconds.len() as f64),
            ("pool.busy_seconds_total", pool.total_busy_seconds()),
            ("pool.load_imbalance", pool.load_imbalance()),
        ] {
            self.counters.insert(name.to_string(), value);
        }
    }

    /// Counts the direction flips in the iteration sequence: steps
    /// whose mode differs from the previous step's.
    pub fn direction_flips(&self) -> usize {
        self.iterations
            .windows(2)
            .filter(|w| w[0].stat.mode != w[1].stat.mode)
            .count()
    }

    /// Serializes to a JSON object (schema [`TRACE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.iterations.len() * 96);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::string(TRACE_SCHEMA)));
        out.push_str(&format!(
            "  \"algorithm\": {},\n",
            json::string(&self.algorithm)
        ));
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json::string(k), json::string(v)));
        }
        out.push_str("},\n");
        out.push_str("  \"iterations\": [");
        for (i, it) in self.iterations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let r = &it.stat;
            out.push_str(&format!(
                "\n    {{\"step\": {}, \"frontier_size\": {}, \"edges_scanned\": {}, \
                 \"seconds\": {}, \"mode\": {}, \"density\": {}, \
                 \"decision\": {{\"observed\": {}, \"cutoff\": {}, \"forced\": {}}}, \
                 \"hardware\": {{",
                it.step,
                r.frontier_size,
                r.edges_scanned,
                json::number(r.seconds),
                json::string(r.mode.as_str()),
                json::number(r.density),
                r.decision.observed,
                r.decision.cutoff,
                r.decision.forced,
            ));
            for (j, (k, v)) in it.hardware.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json::string(k), json::number(*v)));
            }
            out.push_str("}}");
        }
        if !self.iterations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json::string(k), json::number(*v)));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"seconds\": {}, \"hardware\": {{",
                json::string(&p.name),
                json::number(p.seconds)
            ));
            for (j, (k, v)) in p.hardware.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json::string(k), json::number(*v)));
            }
            out.push_str("}, \"memory\": ");
            match &p.memory {
                None => out.push_str("null"),
                Some(m) => out.push_str(&format!(
                    "{{\"allocated_bytes\": {}, \"freed_bytes\": {}, \
                     \"peak_bytes\": {}, \"end_rss_bytes\": {}}}",
                    m.allocated_bytes, m.freed_bytes, m.peak_bytes, m.end_rss_bytes
                )),
            }
            out.push('}');
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a trace previously produced by [`RunTrace::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on malformed JSON, a missing/foreign
    /// schema tag, or fields of unexpected shape.
    pub fn from_json(text: &str) -> Result<Self, TraceError> {
        let value = json::parse(text).map_err(TraceError::Malformed)?;
        let obj = value
            .as_object()
            .ok_or_else(|| err("root is not an object"))?;
        let schema = get(obj, "schema")?
            .as_str()
            .ok_or_else(|| err("schema is not a string"))?;
        if schema != TRACE_SCHEMA {
            return Err(TraceError::UnsupportedSchema(schema.to_string()));
        }
        let mut trace = RunTrace::new(
            get(obj, "algorithm")?
                .as_str()
                .ok_or_else(|| err("algorithm is not a string"))?,
        );
        for (k, v) in get(obj, "config")?
            .as_object()
            .ok_or_else(|| err("config is not an object"))?
        {
            trace.config.insert(
                k.clone(),
                v.as_str()
                    .ok_or_else(|| err("config value is not a string"))?
                    .to_string(),
            );
        }
        for it in get(obj, "iterations")?
            .as_array()
            .ok_or_else(|| err("iterations is not an array"))?
        {
            let o = it
                .as_object()
                .ok_or_else(|| err("iteration is not an object"))?;
            let stat = IterStat {
                frontier_size: num_field(o, "frontier_size")? as usize,
                edges_scanned: num_field(o, "edges_scanned")? as usize,
                seconds: num_field(o, "seconds")?,
                mode: StepMode::parse(
                    get(o, "mode")?
                        .as_str()
                        .ok_or_else(|| err("mode is not a string"))?,
                )
                .ok_or_else(|| err("unknown step mode"))?,
                density: num_field(o, "density")?,
                decision: {
                    let d = get(o, "decision")?
                        .as_object()
                        .ok_or_else(|| err("decision is not an object"))?;
                    DirectionDecision {
                        observed: num_field(d, "observed")? as usize,
                        cutoff: num_field(d, "cutoff")? as usize,
                        forced: match get(d, "forced")? {
                            json::Value::Bool(b) => *b,
                            _ => return Err(err("decision forced is not a bool")),
                        },
                    }
                },
            };
            let mut iteration = TraceIteration::new(num_field(o, "step")? as usize, stat);
            for (k, v) in get(o, "hardware")?
                .as_object()
                .ok_or_else(|| err("iteration hardware is not an object"))?
            {
                iteration.hardware.insert(
                    k.clone(),
                    v.as_number()
                        .ok_or_else(|| err("hardware counter is not a number"))?,
                );
            }
            trace.iterations.push(iteration);
        }
        for (k, v) in get(obj, "counters")?
            .as_object()
            .ok_or_else(|| err("counters is not an object"))?
        {
            trace.counters.insert(
                k.clone(),
                v.as_number()
                    .ok_or_else(|| err("counter is not a number"))?,
            );
        }
        for p in get(obj, "phases")?
            .as_array()
            .ok_or_else(|| err("phases is not an array"))?
        {
            let o = p.as_object().ok_or_else(|| err("phase is not an object"))?;
            let mut profile = PhaseProfile {
                name: get(o, "name")?
                    .as_str()
                    .ok_or_else(|| err("phase name is not a string"))?
                    .to_string(),
                seconds: num_field(o, "seconds")?,
                ..PhaseProfile::default()
            };
            for (k, v) in get(o, "hardware")?
                .as_object()
                .ok_or_else(|| err("phase hardware is not an object"))?
            {
                profile.hardware.insert(
                    k.clone(),
                    v.as_number()
                        .ok_or_else(|| err("hardware counter is not a number"))?,
                );
            }
            match get(o, "memory")? {
                json::Value::Null => {}
                mem => {
                    let mo = mem
                        .as_object()
                        .ok_or_else(|| err("phase memory is not an object"))?;
                    profile.memory = Some(PhaseMemory {
                        allocated_bytes: num_field(mo, "allocated_bytes")? as u64,
                        freed_bytes: num_field(mo, "freed_bytes")? as u64,
                        peak_bytes: num_field(mo, "peak_bytes")? as u64,
                        end_rss_bytes: num_field(mo, "end_rss_bytes")? as u64,
                    });
                }
            }
            trace.phases.push(profile);
        }
        Ok(trace)
    }
}

fn err(msg: &str) -> TraceError {
    TraceError::Malformed(msg.to_string())
}

fn get<'a>(obj: &'a [(String, json::Value)], key: &str) -> Result<&'a json::Value, TraceError> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| err(&format!("missing field '{key}'")))
}

fn num_field(obj: &[(String, json::Value)], key: &str) -> Result<f64, TraceError> {
    get(obj, key)?
        .as_number()
        .ok_or_else(|| err(&format!("field '{key}' is not a number")))
}

pub mod json {
    //! A minimal JSON reader/writer covering exactly what [`RunTrace`]
    //! emits (the workspace deliberately carries no serialization
    //! dependency). Strings, finite numbers, booleans, null, arrays
    //! and objects; objects preserve insertion order. Parsing is linear
    //! in the document's length and refuses nesting deeper than 128
    //! arrays/objects, so no input can exhaust the stack.
    //!
    //! [`RunTrace`]: super::RunTrace

    /// The deepest array/object nesting [`parse`] accepts. A run trace
    /// nests 4 deep and a daemon request 1 deep.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, kept as `f64`.
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, as ordered key/value pairs.
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// The string content, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_number(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }

        /// The key/value pairs, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(v) => Some(v),
                _ => None,
            }
        }

        /// The value of this object's field `key`; a repeated key's
        /// first occurrence wins. `None` for a missing key or a value
        /// that is not an object. Daemon request lines and delta lines
        /// are both read by this one rule.
        pub fn get(&self, key: &str) -> Option<&Value> {
            let pairs = self.as_object()?;
            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
    }

    /// Renders a JSON string literal (with escaping).
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Renders a JSON number. Non-finite values (which valid traces
    /// never contain) render as `null`.
    pub fn number(n: f64) -> String {
        if n.is_finite() {
            format!("{n}")
        } else {
            "null".to_string()
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.pos))
            }
        }

        /// Parses the value at the cursor, which sits inside `depth`
        /// open arrays/objects.
        fn value(&mut self, depth: usize) -> Result<Value, String> {
            match self.peek() {
                Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                )),
                Some(b'{') => self.object(depth + 1),
                Some(b'[') => self.array(depth + 1),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn object(&mut self, depth: usize) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value(depth)?;
                pairs.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self, depth: usize) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value(depth)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                                self.pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy the run up to the next quote or escape in
                        // one step. Both delimiters are ASCII, so the run
                        // starts and ends on character boundaries.
                        let run = self.bytes[self.pos..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\')
                            .unwrap_or(self.bytes.len() - self.pos);
                        let end = self.pos + run;
                        out.push_str(self.text.get(self.pos..end).ok_or("invalid UTF-8")?);
                        self.pos = end;
                    }
                    None => return Err("unterminated string".to_string()),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "invalid number")?;
            text.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| format!("invalid number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(frontier_size: usize, mode: StepMode, decision: DirectionDecision) -> IterStat {
        IterStat {
            frontier_size,
            edges_scanned: frontier_size * 3,
            seconds: 0.001,
            mode,
            density: 0.125,
            decision,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.record_counter("x", 1);
        r.record_iteration(0, &stat(0, StepMode::Push, DirectionDecision::default()));
    }

    #[test]
    fn trace_recorder_accumulates() {
        let r = TraceRecorder::new();
        assert!(r.enabled());
        r.record_counter("edges", 10);
        r.record_counter("edges", 5);
        let pulled = stat(1, StepMode::Pull, DirectionDecision::heuristic(3, 2));
        r.record_iteration(0, &pulled);
        assert_eq!(r.counters()["edges"], 15.0);
        // Without `with_hardware_counters` the hardware map exists but
        // stays empty.
        assert_eq!(r.iterations(), vec![TraceIteration::new(0, pulled)]);
        assert!(r.iterations()[0].stat.decision.says_pull());
    }

    #[test]
    fn iteration_perf_recorder_samples_every_window() {
        let r = TraceRecorder::with_hardware_counters();
        for step in 0..3 {
            let mut x = 1u64;
            for i in 0..200_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            r.record_iteration(step, &stat(1, StepMode::Push, DirectionDecision::default()));
        }
        let mut trace = RunTrace::new("bfs");
        trace.absorb(&r);
        assert_eq!(trace.iterations, r.iterations());
        let steps: Vec<usize> = trace.iterations.iter().map(|it| it.step).collect();
        assert_eq!(steps, [0, 1, 2]);
        // Every iteration window samples the same counter set (which is
        // legitimately empty on restricted hosts).
        let keys: Vec<Vec<&String>> = trace
            .iterations
            .iter()
            .map(|it| it.hardware.keys().collect())
            .collect();
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[1], keys[2]);
    }

    fn sample_trace() -> RunTrace {
        let mut t = RunTrace::new("bfs");
        t.config.insert("layout".into(), "adjacency".into());
        t.config.insert("flow".into(), "push".into());
        let mut first = TraceIteration::new(
            0,
            IterStat {
                frontier_size: 1,
                edges_scanned: 3,
                seconds: 0.001,
                mode: StepMode::Push,
                density: 0.002,
                decision: DirectionDecision::heuristic(4, 97),
            },
        );
        first.hardware.insert("cycles".into(), 1.5e6);
        t.iterations = vec![
            first,
            TraceIteration::new(
                1,
                IterStat {
                    frontier_size: 42,
                    edges_scanned: 977,
                    seconds: 0.0025,
                    mode: StepMode::Pull,
                    density: 0.52,
                    decision: DirectionDecision::heuristic(1019, 97),
                },
            ),
        ];
        t.counters.insert("pool.steals".into(), 7.0);
        t.counters.insert("storage.bytes_read".into(), 65536.0);
        let mut algo_phase = PhaseProfile {
            name: "algorithm".into(),
            seconds: 0.125,
            ..PhaseProfile::default()
        };
        algo_phase.hardware.insert("cycles".into(), 1.25e9);
        algo_phase.hardware.insert("llc_load_misses".into(), 3.0e6);
        algo_phase.memory = Some(PhaseMemory {
            allocated_bytes: 4_194_304,
            freed_bytes: 1_048_576,
            peak_bytes: 5_242_880,
            end_rss_bytes: 33_554_432,
        });
        t.phases.push(algo_phase);
        // No memory section on this one: both states must round-trip.
        t.phases.push(PhaseProfile {
            name: "load, \"restricted\"".into(), // exercises string escapes
            seconds: 0.5,
            ..PhaseProfile::default()
        });
        t
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let trace = sample_trace();
        let text = trace.to_json();
        let parsed = RunTrace::from_json(&text).unwrap();
        assert_eq!(parsed, trace);
        // Phase time is stated once, in `phases`.
        for retired in ["breakdown", "spans", "simulated", "total"] {
            assert!(!text.contains(retired), "{retired} in:\n{text}");
        }
    }

    #[test]
    fn json_rejects_foreign_schema() {
        let text = sample_trace().to_json().replace(TRACE_SCHEMA, "other/9");
        assert!(RunTrace::from_json(&text).is_err());
    }

    #[test]
    fn json_rejects_malformed_input() {
        assert!(RunTrace::from_json("{").is_err());
        assert!(RunTrace::from_json("[]").is_err());
        assert!(RunTrace::from_json("{\"schema\": 3}").is_err());
    }

    /// A document nested past [`json::MAX_DEPTH`] — here 200 000 open
    /// brackets, which used to overflow the stack and abort the process
    /// — is a typed `Malformed` error.
    #[test]
    fn deep_nesting_is_malformed_not_a_stack_overflow() {
        let text = format!("{{\"schema\":{}", "[".repeat(200_000));
        match RunTrace::from_json(&text) {
            Err(TraceError::Malformed(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn json_nesting_limit_is_exact() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH + 1)).is_err());
        let objects = |depth: usize| format!("{}1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(json::parse(&objects(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&objects(json::MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn direction_flips_counts_mode_changes() {
        let mut t = sample_trace();
        assert_eq!(t.direction_flips(), 1); // push → pull
        t.iterations.push(TraceIteration::new(
            2,
            stat(9, StepMode::Push, DirectionDecision::heuristic(21, 97)),
        ));
        assert_eq!(t.direction_flips(), 2); // ... → push again
        t.iterations.clear();
        assert_eq!(t.direction_flips(), 0);
    }

    #[test]
    fn future_schema_errors_are_typed_with_offending_tag() {
        let json_text = sample_trace()
            .to_json()
            .replacen(TRACE_SCHEMA, "egraph-trace/9", 1);
        let e = RunTrace::from_json(&json_text).unwrap_err();
        assert_eq!(e, TraceError::UnsupportedSchema("egraph-trace/9".into()));
        let msg = e.to_string();
        assert!(msg.contains("egraph-trace/9"), "offending tag in: {msg}");
        assert!(msg.contains(TRACE_SCHEMA), "accepted tags in: {msg}");

        // Structural failures stay in the Malformed variant.
        assert!(matches!(
            RunTrace::from_json("{").unwrap_err(),
            TraceError::Malformed(_)
        ));
    }

    #[test]
    fn trace_recorder_records_phases() {
        let recorder = TraceRecorder::with_hardware_counters();
        let start = recorder.begin_phase("algorithm");
        let mut x = 1u64;
        for i in 0..500_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        recorder.end_phase(start);
        assert_ne!(std::hint::black_box(x), 0);
        let phases = recorder.phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "algorithm");
        assert!(phases[0].seconds > 0.0);
        // Hardware values only when the host grants counters — and then
        // the busy loop must have registered on every open counter.
        for kind in recorder.available_counters() {
            assert!(phases[0].hardware.contains_key(kind.name()));
        }
        // A recorded phase always carries the memory section; the
        // allocator fields are zero here (no TrackingAlloc in this test
        // binary) while end-RSS carries the statm fallback on Linux.
        let mem = phases[0].memory.expect("memory section present");
        if std::path::Path::new("/proc/self/statm").exists() {
            assert!(mem.end_rss_bytes > 0, "RSS fallback sampled: {mem:?}");
        }
        // `absorb` moves the phases into the trace with the rest.
        let mut trace = RunTrace::new("bfs");
        trace.absorb(&recorder);
        assert_eq!(trace.phases, phases);
    }

    #[test]
    fn null_recorder_records_no_phase() {
        let recorder = NullRecorder;
        let start = recorder.begin_phase("x");
        recorder.end_phase(start);
        let ctx = crate::exec::ExecCtx::new(None).recorder(&recorder);
        assert_eq!(ctx.profile("x", || 7), 7);
        // A plain trace recorder records phases with empty hardware
        // maps: it opened no counters.
        let plain = TraceRecorder::new();
        assert!(plain.available_counters().is_empty());
        assert!(plain.phases().is_empty());
        let start = plain.begin_phase("x");
        plain.end_phase(start);
        assert!(plain.phases()[0].hardware.is_empty());
    }

    #[test]
    fn hardware_llc_miss_ratio_needs_both_counters() {
        let mut p = PhaseProfile {
            name: "algorithm".into(),
            ..PhaseProfile::default()
        };
        assert_eq!(p.hardware_llc_miss_ratio(), None);
        p.hardware.insert("llc_loads".into(), 400.0);
        assert_eq!(p.hardware_llc_miss_ratio(), None);
        p.hardware.insert("llc_load_misses".into(), 100.0);
        assert_eq!(p.hardware_llc_miss_ratio(), Some(0.25));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = json::parse(r#"{"a": [1, -2.5e3, "x\nλA"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr[1].as_number(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\nλA"));
        assert_eq!(obj[1].1.as_object().unwrap()[1].1, json::Value::Null);
        // Multi-byte runs between escapes are copied whole.
        let s = json::parse(r#""héllo \"wörld\"\\☃\u00e9""#).unwrap();
        assert_eq!(s.as_str(), Some("héllo \"wörld\"\\☃é"));
        assert!(json::parse("\"unterminated ☃").is_err());
    }
}
