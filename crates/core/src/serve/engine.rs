//! The batching query engine: an admission queue, a scheduler thread
//! that groups pending same-algorithm queries into waves, and the
//! demultiplexed per-query results.
//!
//! Life of a query: [`ServeEngine::submit`] validates it, enqueues a
//! pending entry and wakes the scheduler. The scheduler waits up to the
//! configured batching window for more same-kind queries (or until
//! [`ServeConfig::max_wave`] distinct sources are pending), extracts
//! them as one wave, runs the matching multi-source kernel from
//! [`super::wave`] under the engine's thread pool, and sends each
//! lane's result back through the per-query channel. Callers block on
//! their receiver — typically one connection-handler thread per client
//! — so the engine is naturally concurrent without any async machinery.
//!
//! The unit of kernel work is the *lane*, not the query: a wave holds
//! one lane per distinct source, and every queued query of the wave's
//! kind naming that source rides the lane. The lane's answer is cut
//! and checksummed once and fanned out to its riders at demux, so N
//! identical in-flight queries cost one traversal and one hash.
//!
//! A query's time is three stages: *queue* (admission to wave launch),
//! *exec* (the wave's rounds) and *demux* (the lane split, each
//! answer's cut and checksum, and the sends up to this query's).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use egraph_parallel::ThreadPool;

use crate::engine::FrontierAlgo;
use crate::exec::ExecCtx;
use crate::layout::{
    AdjacencyList, CcsrList, DeltaBatch, DeltaError, DeltaGraph, DeltaList, DeltaOp, EdgeDirection,
    EpochCell, Grid,
};
use crate::metrics::IterStat;
use crate::preprocess::{CcsrBuilder, CsrBuilder, GridBuilder, Strategy};
use crate::telemetry::json;
use crate::types::{Edge, EdgeList, EdgeRecord, VertexId, WEdge};
use crate::variant::{default_grid_side, Algo, Layout, VariantError};

use super::journal::{EventOutcome, QueryEvent, QueryJournal};
use super::wave::{BfsLanes, Lanes, SsspLanes, MAX_WAVE};

/// Tuning knobs for the serve engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads for wave execution (0 = all hardware threads).
    pub threads: usize,
    /// Most lanes — distinct sources — the scheduler packs into one
    /// wave; clamped to `1..=`[`MAX_WAVE`]. Queries naming a source
    /// that already has a lane ride it, so a wave may answer more
    /// queries than it has lanes.
    pub max_wave: usize,
    /// How long an admitted query may wait for companions before its
    /// wave is launched anyway.
    pub batch_window: Duration,
    /// Publish per-query metrics on the global registry.
    pub metrics: bool,
    /// The resident layout waves traverse: [`Layout::Adjacency`]
    /// (default), [`Layout::Grid`], [`Layout::Ccsr`] or
    /// [`Layout::Delta`]. [`Layout::EdgeList`] has no servable index
    /// and panics at start-up.
    pub layout: Layout,
    /// Flight-recorder ring capacity in events (0 disables recording —
    /// only the overhead-measurement mode of `exp_serve_latency` does).
    pub journal_capacity: usize,
    /// Emit the full flight-recorder event on stderr for any query
    /// whose admission-to-demux latency reaches this threshold.
    pub slow_query: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            max_wave: MAX_WAVE,
            batch_window: Duration::from_millis(2),
            metrics: true,
            layout: Layout::Adjacency,
            journal_capacity: 1024,
            slow_query: None,
        }
    }
}

/// The graph a serve engine answers queries about.
#[derive(Debug)]
pub enum ServeGraph {
    /// An unweighted edge list: BFS and k-hop queries only.
    Unweighted(EdgeList<Edge>),
    /// A weighted edge list: additionally serves SSSP.
    Weighted(EdgeList<WEdge>),
}

/// One servable layout over edges of type `E`.
enum ResidentLayout<E: EdgeRecord> {
    Adj(AdjacencyList<E>),
    Grid(Grid<E>),
    Ccsr(CcsrList<E>),
    Delta(DeltaList<E>),
}

impl<E: EdgeRecord> ResidentLayout<E> {
    /// Builds the configured layout (radix sort, the §5 pick for large
    /// inputs; neighbor-sorted so adj and ccsr traverse identical
    /// orders).
    fn build(g: &EdgeList<E>, layout: Layout) -> Self {
        let csr = || {
            CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
                .sort_neighbors(true)
                .build(g)
        };
        match layout {
            Layout::Adjacency => Self::Adj(csr()),
            Layout::Grid => Self::Grid(
                GridBuilder::new(Strategy::RadixSort)
                    .side(default_grid_side(g.num_vertices()))
                    .build(g),
            ),
            Layout::Ccsr => {
                Self::Ccsr(CcsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(g))
            }
            Layout::Delta => {
                // An empty overlay: the snapshot is already merged.
                let (out, inc) = csr().into_parts();
                Self::Delta(DeltaList::new(out, inc, &Default::default()))
            }
            Layout::EdgeList => unreachable!("ServeEngine::start rejects the edge layout"),
        }
    }

    fn resident_bytes(&self) -> u64 {
        match self {
            Self::Adj(a) => a.resident_bytes(),
            Self::Grid(g) => g.resident_bytes(),
            Self::Ccsr(c) => c.resident_bytes(),
            Self::Delta(d) => d.resident_bytes(),
        }
    }

    /// One wave: every round of its rule on the shared frontier drivers.
    fn run_wave<V>(&self, wave: &Lanes<V>, ctx: &ExecCtx<'_>) -> Vec<IterStat>
    where
        Lanes<V>: FrontierAlgo<E>,
    {
        match self {
            Self::Adj(a) => wave.run(a, ctx),
            Self::Grid(g) => wave.run(&g.cells(), ctx),
            Self::Ccsr(c) => wave.run(c, ctx),
            Self::Delta(d) => wave.run(d, ctx),
        }
    }
}

/// The served graph for edges of type `E`: the library's mutable
/// [`DeltaGraph`] (merged snapshot plus pending log) and the resident
/// layout built from its snapshot. Updates append to the graph's log;
/// waves only load the resident cell, so updates and compaction never
/// block readers.
struct Served<E: EdgeRecord> {
    graph: DeltaGraph<E>,
    layout: Layout,
    resident: EpochCell<Option<ResidentLayout<E>>>,
    /// Held across one merge-build-publish, so residents are published
    /// in the order their snapshots were merged.
    publishing: Mutex<()>,
}

impl<E: EdgeRecord> Served<E> {
    /// The one build-and-publish step, run under `publishing`. A
    /// compaction (`merge`) first folds the pending log into the
    /// snapshot and publishes nothing when the log was empty; the
    /// initial build publishes the snapshot as it is.
    fn publish(&self, merge: bool) -> ServeCompaction {
        let _publishing = self
            .publishing
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let started = Instant::now();
        let merged_ops = if merge {
            self.graph.compact().merged_ops
        } else {
            0
        };
        if merge && merged_ops == 0 {
            return ServeCompaction {
                epoch: self.epoch(),
                merged_ops,
                resident_bytes: self.resident_bytes(),
                seconds: 0.0,
            };
        }
        let resident = ResidentLayout::build(&self.graph.snapshot().edges, self.layout);
        let resident_bytes = resident.resident_bytes();
        ServeCompaction {
            epoch: self.resident.publish(Some(resident)),
            merged_ops,
            resident_bytes,
            seconds: started.elapsed().as_secs_f64(),
        }
    }
}

/// The engine handle's view of its [`Served`] graph, whatever the edge
/// type: the update, compaction and status calls.
trait ServedGraph: Send + Sync {
    fn apply_update(&self, ndjson: &str) -> Result<usize, DeltaError>;
    fn apply_line(&self, line: &json::Value) -> Result<usize, DeltaError>;
    fn compact(&self) -> ServeCompaction;
    fn pending_ops(&self) -> usize;
    fn epoch(&self) -> u64;
    fn resident_bytes(&self) -> u64;
}

impl<E: EdgeRecord> ServedGraph for Served<E> {
    fn apply_update(&self, ndjson: &str) -> Result<usize, DeltaError> {
        self.graph.apply(&DeltaBatch::parse_ndjson(ndjson)?)
    }

    fn apply_line(&self, line: &json::Value) -> Result<usize, DeltaError> {
        let op = DeltaOp::from_json(line, 1)?;
        self.graph.apply(&DeltaBatch { ops: vec![op] })
    }

    fn compact(&self) -> ServeCompaction {
        self.publish(true)
    }

    fn pending_ops(&self) -> usize {
        self.graph.pending_ops()
    }

    fn epoch(&self) -> u64 {
        self.resident.epoch()
    }

    fn resident_bytes(&self) -> u64 {
        self.resident
            .load()
            .as_ref()
            .as_ref()
            .map_or(0, ResidentLayout::resident_bytes)
    }
}

/// What [`ServeEngine::compact`] reports back to the caller (and the
/// daemon puts on the wire).
#[derive(Debug, Clone, Copy)]
pub struct ServeCompaction {
    /// The epoch of the published snapshot (unchanged when the log was
    /// empty).
    pub epoch: u64,
    /// How many delta ops were merged into the new snapshot.
    pub merged_ops: usize,
    /// Resident heap bytes of the (re)built layout.
    pub resident_bytes: u64,
    /// Wall seconds spent merging and rebuilding.
    pub seconds: f64,
}

/// The algorithm of a point query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Full BFS levels from a source.
    Bfs,
    /// Single-source shortest-path distances (weighted graphs only).
    Sssp,
    /// BFS levels truncated at a depth bound.
    KHop,
}

impl QueryKind {
    /// The wire / metrics name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Bfs => "bfs",
            QueryKind::Sssp => "sssp",
            QueryKind::KHop => "khop",
        }
    }

    /// Queries of different kinds never share a wave; k-hop queries
    /// with different depth bounds may, even on one lane (the kernel
    /// runs to the deepest bound and each rider's answer is cut at its
    /// own).
    fn batch_key(&self) -> u8 {
        match self {
            QueryKind::Bfs => 0,
            QueryKind::Sssp => 1,
            QueryKind::KHop => 2,
        }
    }
}

/// One point query.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// The algorithm to run.
    pub kind: QueryKind,
    /// The source vertex.
    pub source: VertexId,
    /// Depth bound for [`QueryKind::KHop`]; ignored otherwise.
    pub depth: u32,
}

/// Per-query result values.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValues {
    /// BFS / k-hop levels, `u32::MAX` = unreached.
    Levels(Vec<u32>),
    /// SSSP distances, `f32::INFINITY` = unreachable.
    Dists(Vec<f32>),
}

impl QueryValues {
    /// Number of vertices reached from the source.
    pub fn reachable(&self) -> usize {
        match self {
            QueryValues::Levels(l) => l.iter().filter(|&&x| x != u32::MAX).count(),
            QueryValues::Dists(d) => d.iter().filter(|&&x| x.is_finite()).count(),
        }
    }

    /// A 64-bit, order-sensitive hash of the values' `u32` bits in
    /// vertex order — the one checksum the daemon, the flight recorder,
    /// the qps experiment and the benchmark compare answers by.
    ///
    /// Four independent streams each take two words per step as one
    /// `u64` through an xxHash64-style multiply–rotate round, so the
    /// streams' multiplies overlap; the length, the four streams and
    /// the last `len % 8` words then fold into one word, and a final
    /// avalanche mixes it. Every step is a bijection of the state for
    /// a fixed input and of the input for a fixed state, so changing
    /// any one value always changes the checksum.
    pub fn checksum(&self) -> u64 {
        const P1: u64 = 0x9E37_79B1_85EB_CA87;
        const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
        const P3: u64 = 0x1656_67B1_9E37_79F9;
        fn round(acc: u64, input: u64) -> u64 {
            acc.wrapping_add(input.wrapping_mul(P2))
                .rotate_left(31)
                .wrapping_mul(P1)
        }
        fn hash<T>(values: &[T], bits: impl Fn(&T) -> u32) -> u64 {
            let mut streams = [P1, P2, P3, !P1];
            let mut chunks = values.chunks_exact(8);
            for chunk in &mut chunks {
                for (acc, pair) in streams.iter_mut().zip(chunk.chunks_exact(2)) {
                    let word = u64::from(bits(&pair[0])) | u64::from(bits(&pair[1])) << 32;
                    *acc = round(*acc, word);
                }
            }
            let mut h = round(P3, values.len() as u64);
            for acc in streams {
                h = round(h, acc);
            }
            for value in chunks.remainder() {
                h = round(h, u64::from(bits(value)));
            }
            h ^= h >> 33;
            h = h.wrapping_mul(P2);
            h ^= h >> 29;
            h = h.wrapping_mul(P3);
            h ^ h >> 32
        }
        match self {
            QueryValues::Levels(l) => hash(l, |&x| x),
            QueryValues::Dists(d) => hash(d, |x| x.to_bits()),
        }
    }

    /// Marks every level beyond `bound` hops unreached: a lane runs to
    /// the deepest bound among its wave's k-hop riders, and this cuts
    /// the shared result back to one rider's own depth.
    fn cut_levels(&mut self, bound: u32) {
        if bound == u32::MAX {
            return;
        }
        if let QueryValues::Levels(levels) = self {
            for level in levels.iter_mut() {
                if *level != u32::MAX && *level > bound {
                    *level = u32::MAX;
                }
            }
        }
    }
}

/// What a completed query hands back to its submitter.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The per-vertex answer.
    pub values: QueryValues,
    /// [`QueryValues::checksum`] of `values`, computed once at demux so
    /// the daemon and the flight recorder agree without rehashing.
    pub checksum: u64,
    /// How many queries shared this wave's edge scan. Riders of one
    /// lane all count, so this may exceed [`MAX_WAVE`].
    pub wave_size: usize,
    /// Seconds spent queued before the wave launched.
    pub wait_seconds: f64,
    /// Seconds of kernel execution for the whole wave: its rounds,
    /// from launch to the last round's end.
    pub exec_seconds: f64,
    /// Seconds between kernel completion and this query's result send:
    /// the split of the wave into lanes, k-hop truncation,
    /// checksumming and earlier riders' demux.
    pub demux_seconds: f64,
}

struct Pending {
    id: u64,
    query: Query,
    enqueued: Instant,
    tx: mpsc::Sender<QueryOutcome>,
}

/// One formed wave: the distinct sources the kernel runs, one bit lane
/// each, and every query riding them.
struct Wave {
    sources: Vec<VertexId>,
    /// `(lane, query)` in admission order.
    riders: Vec<(usize, Pending)>,
}

impl Wave {
    /// Takes from `queue` the longest admission-order run of the oldest
    /// query's kind that fits in `max_lanes` lanes: each new source
    /// opens a lane, each repeat rides the lane its source already has,
    /// and the run ends at the first query that would need one lane too
    /// many. Queries of other kinds, and of this kind from that query
    /// on, stay queued in order — so answers of one kind never overtake
    /// each other, and a client collecting them in the order it asked
    /// never leaves a later answer parked in its channel. (Letting
    /// repeats behind that query ride too would pack tighter waves, but
    /// every overtaking answer — a `|V|`-word array — then sits in its
    /// channel until the overtaken query is served: DESIGN.md §13.3
    /// has the measurement.)
    fn extract(queue: &mut VecDeque<Pending>, max_lanes: usize) -> Self {
        let key = queue[0].query.kind.batch_key();
        let mut lane_of: HashMap<VertexId, usize> = HashMap::with_capacity(max_lanes);
        let mut wave = Wave {
            sources: Vec::with_capacity(max_lanes),
            riders: Vec::new(),
        };
        let mut rest = VecDeque::with_capacity(queue.len());
        let mut full = false;
        for pending in queue.drain(..) {
            if full || pending.query.kind.batch_key() != key {
                rest.push_back(pending);
                continue;
            }
            let source = pending.query.source;
            let lane = match lane_of.get(&source) {
                Some(&lane) => lane,
                None if wave.sources.len() < max_lanes => {
                    lane_of.insert(source, wave.sources.len());
                    wave.sources.push(source);
                    wave.sources.len() - 1
                }
                None => {
                    full = true;
                    rest.push_back(pending);
                    continue;
                }
            };
            wave.riders.push((lane, pending));
        }
        *queue = rest;
        wave
    }
}

/// The depth a query's answer is cut at: its own bound for k-hop, none
/// for the full traversals (whose `depth` field is ignored).
fn depth_bound(query: &Query) -> u32 {
    match query.kind {
        QueryKind::KHop => query.depth,
        QueryKind::Bfs | QueryKind::Sssp => u32::MAX,
    }
}

/// One distinct answer a lane hands out: the lane's kernel result cut
/// at one depth bound, built when its first rider is reached.
struct Answer {
    bound: u32,
    riders_left: usize,
    built: Option<(QueryValues, u64)>,
}

/// One lane's kernel result on its way to the lane's riders. Almost
/// every lane has a single [`Answer`]; only k-hop riders of one source
/// with different depth bounds need more.
struct LaneFanout {
    /// The kernel output, held until the last answer is cut from it.
    raw: Option<QueryValues>,
    answers: Vec<Answer>,
}

impl LaneFanout {
    fn new(raw: QueryValues) -> Self {
        Self {
            raw: Some(raw),
            answers: Vec::new(),
        }
    }

    /// Registers one rider with depth bound `bound`.
    fn expect_rider(&mut self, bound: u32) {
        match self.answers.iter_mut().find(|a| a.bound == bound) {
            Some(answer) => answer.riders_left += 1,
            None => self.answers.push(Answer {
                bound,
                riders_left: 1,
                built: None,
            }),
        }
    }

    /// The values and checksum for the next rider with bound `bound`.
    /// Truncation and the checksum run once per answer; every rider but
    /// the answer's last gets a clone made here, at send time, and the
    /// last takes the original — so a lane never holds more copies than
    /// it has distinct bounds.
    fn next_answer(&mut self, bound: u32) -> (QueryValues, u64) {
        let unbuilt = self.answers.iter().filter(|a| a.built.is_none()).count();
        let answer = self
            .answers
            .iter_mut()
            .find(|a| a.bound == bound)
            .expect("every rider was registered before the fan-out");
        if answer.built.is_none() {
            let raw = if unbuilt == 1 {
                self.raw.take()
            } else {
                self.raw.clone()
            };
            let mut values = raw.expect("the raw result outlives its unbuilt answers");
            values.cut_levels(bound);
            let checksum = values.checksum();
            answer.built = Some((values, checksum));
        }
        answer.riders_left -= 1;
        let built = if answer.riders_left == 0 {
            answer.built.take()
        } else {
            answer.built.clone()
        };
        built.expect("built above")
    }
}

#[derive(Default)]
struct Admission {
    queue: VecDeque<Pending>,
    stopping: bool,
}

struct Shared {
    admission: Mutex<Admission>,
    wake: Condvar,
    inflight: AtomicU64,
}

/// The three lifecycle-stage histograms (plus the end-to-end total)
/// for one `{algo, layout}` label set.
struct StageHists {
    queue: egraph_metrics::Histogram,
    exec: egraph_metrics::Histogram,
    demux: egraph_metrics::Histogram,
    total: egraph_metrics::Histogram,
}

impl StageHists {
    fn new(algo: &'static str, layout: &'static str) -> Self {
        let r = egraph_metrics::global();
        let labels: &[(&str, &str)] = &[("algo", algo), ("layout", layout)];
        Self {
            queue: r.histogram_seconds_with_labels(
                "egraph_serve_queue_seconds",
                "Admission-queue wait before the query's wave launched.",
                labels,
            ),
            exec: r.histogram_seconds_with_labels(
                "egraph_serve_exec_seconds",
                "Multi-source kernel execution for the query's wave.",
                labels,
            ),
            demux: r.histogram_seconds_with_labels(
                "egraph_serve_demux_seconds",
                "Demux/write-back from kernel completion to the result send.",
                labels,
            ),
            total: r.histogram_seconds_with_labels(
                "egraph_serve_query_seconds",
                "End-to-end per-query latency (admission to demux).",
                labels,
            ),
        }
    }
}

struct Metrics {
    queries_total: [egraph_metrics::Counter; 3],
    /// Queries answered by riding a lane another query opened.
    coalesced_total: [egraph_metrics::Counter; 3],
    /// Stage histograms indexed by [`QueryKind::batch_key`].
    stages: [StageHists; 3],
    wave_size: egraph_metrics::Histogram,
    wave_lanes: egraph_metrics::Histogram,
    /// Rounds per wave, from the wave's iteration records.
    wave_rounds: [egraph_metrics::Histogram; 3],
    /// Σ `edges_scanned` over a wave's iteration records.
    wave_edges_scanned: [egraph_metrics::Histogram; 3],
    waves_total: egraph_metrics::Counter,
    inflight: egraph_metrics::Gauge,
    queue_depth: egraph_metrics::Gauge,
}

impl Metrics {
    fn new(layout: &'static str) -> Self {
        let r = egraph_metrics::global();
        let kinds = [QueryKind::Bfs, QueryKind::Sssp, QueryKind::KHop];
        let queries_total = kinds.map(|k| {
            r.counter_with_labels(
                "egraph_serve_queries_total",
                "Point queries answered by the serve engine.",
                &[("algo", k.name())],
            )
        });
        let coalesced_total = kinds.map(|k| {
            r.counter_with_labels(
                "egraph_serve_coalesced_queries_total",
                "Queries answered by riding a wave lane another query opened.",
                &[("algo", k.name()), ("layout", layout)],
            )
        });
        Self {
            queries_total,
            coalesced_total,
            stages: kinds.map(|k| StageHists::new(k.name(), layout)),
            wave_size: r.histogram_with_bounds(
                "egraph_serve_wave_size",
                "Queries sharing one multi-source wave.",
                &[],
                egraph_metrics::Histogram::log2_bounds(0, 12),
            ),
            wave_lanes: r.histogram_with_bounds(
                "egraph_serve_wave_lanes",
                "Distinct sources (bit lanes) one multi-source wave ran.",
                &[],
                egraph_metrics::Histogram::log2_bounds(0, 6),
            ),
            wave_rounds: kinds.map(|k| {
                r.histogram_with_bounds(
                    "egraph_serve_wave_rounds",
                    "Frontier rounds one multi-source wave ran.",
                    &[("algo", k.name()), ("layout", layout)],
                    egraph_metrics::Histogram::log2_bounds(0, 12),
                )
            }),
            wave_edges_scanned: kinds.map(|k| {
                r.histogram_with_bounds(
                    "egraph_serve_wave_edges_scanned",
                    "Edges one multi-source wave scanned, summed over its rounds.",
                    &[("algo", k.name()), ("layout", layout)],
                    egraph_metrics::Histogram::log2_bounds(4, 34),
                )
            }),
            waves_total: r.counter(
                "egraph_serve_waves_total",
                "Multi-source waves executed by the serve engine.",
            ),
            inflight: r.gauge(
                "egraph_serve_inflight",
                "Queries admitted but not yet answered.",
            ),
            queue_depth: r.gauge(
                "egraph_serve_queue_depth",
                "Queries waiting in the admission queue.",
            ),
        }
    }
}

/// A running batched-query engine. Dropping it drains the admission
/// queue and joins the scheduler.
pub struct ServeEngine {
    shared: Arc<Shared>,
    served: Arc<dyn ServedGraph>,
    scheduler: Option<JoinHandle<()>>,
    /// Fixed for the engine's lifetime: deltas add and remove edges only.
    num_vertices: usize,
    weighted: bool,
    layout: Layout,
    ready: Arc<AtomicBool>,
    journal: Arc<QueryJournal>,
    /// The pool waves run on, built at start with
    /// [`ServeConfig::threads`] workers.
    pool: Arc<ThreadPool>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("num_vertices", &self.num_vertices)
            .field("weighted", &self.weighted)
            .field("layout", &self.layout)
            .finish()
    }
}

impl ServeEngine {
    /// Builds the configured read-optimized layout (radix sort, the §5
    /// pick for large inputs) and starts the scheduler thread.
    ///
    /// # Panics
    ///
    /// Panics if [`ServeConfig::layout`] is [`Layout::EdgeList`], which
    /// has no servable per-vertex index.
    pub fn start(graph: ServeGraph, config: ServeConfig) -> Self {
        assert!(
            config.layout != Layout::EdgeList,
            "the edge layout has no servable per-vertex index; use adj, grid, ccsr or delta"
        );
        match graph {
            ServeGraph::Unweighted(edges) => Self::start_served(edges, config),
            ServeGraph::Weighted(edges) => Self::start_served(edges, config),
        }
    }

    /// [`Self::start`] once the edge type is known: everything past
    /// this point is generic over it.
    fn start_served<E: EdgeRecord>(edges: EdgeList<E>, config: ServeConfig) -> Self {
        let num_vertices = edges.num_vertices();
        let layout = config.layout;
        let max_wave = config.max_wave.clamp(1, MAX_WAVE);
        let shared = Arc::new(Shared {
            admission: Mutex::new(Admission::default()),
            wake: Condvar::new(),
            inflight: AtomicU64::new(0),
        });
        let ready = Arc::new(AtomicBool::new(false));
        let journal = Arc::new(QueryJournal::new(config.journal_capacity));
        let pool = Arc::new(ThreadPool::new(match config.threads {
            0 => egraph_parallel::pool::default_num_threads(),
            threads => threads,
        }));
        let served = Arc::new(Served {
            graph: DeltaGraph::new(edges),
            layout,
            resident: EpochCell::new(None),
            publishing: Mutex::new(()),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            let served = Arc::clone(&served);
            let ready = Arc::clone(&ready);
            let journal = Arc::clone(&journal);
            let pool = Arc::clone(&pool);
            let config = ServeConfig { max_wave, ..config };
            std::thread::Builder::new()
                .name("egraph-serve-sched".into())
                .spawn(move || scheduler_loop(&served, config, &pool, &shared, &ready, &journal))
                .expect("spawn serve scheduler")
        };
        Self {
            shared,
            served,
            scheduler: Some(scheduler),
            num_vertices,
            weighted: E::WEIGHTED,
            layout,
            ready,
            journal,
            pool,
            next_id: AtomicU64::new(1),
        }
    }

    /// The pool waves run on: its counters and timeline are the served
    /// queries' (the layout builds on the ambient pool).
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Number of vertices in the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Whether the served graph carries edge weights.
    pub fn weighted(&self) -> bool {
        self.weighted
    }

    /// The CLI spelling of the resident layout.
    pub fn layout_name(&self) -> &'static str {
        self.layout.name()
    }

    /// Resident heap bytes of the built layout; `0` until the first
    /// resident is published.
    pub fn resident_bytes(&self) -> u64 {
        self.served.resident_bytes()
    }

    /// Whether the resident layout build finished and waves can launch.
    pub fn ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }

    /// Blocks until the engine is ready (the layout build completed).
    pub fn wait_ready(&self) {
        while !self.ready() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Queries admitted but not yet answered.
    pub fn inflight(&self) -> u64 {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Queries waiting in the admission queue right now (inflight minus
    /// the wave currently executing) — `/healthz` reports this so load
    /// balancers can shed before saturation.
    pub fn queue_depth(&self) -> u64 {
        let admission = self.shared.admission.lock().expect("admission poisoned");
        admission.queue.len() as u64
    }

    /// The flight recorder: the most recent
    /// [`ServeConfig::journal_capacity`] query events.
    pub fn journal(&self) -> &QueryJournal {
        &self.journal
    }

    /// The epoch of the published resident snapshot, counting resident
    /// publishes: `0` while loading, `+1` for the initial build and per
    /// [`Self::compact`] that merged a non-empty log (so `1` once ready
    /// when nothing was compacted before). `/healthz` reports this so
    /// clients can confirm an update stream actually landed.
    pub fn epoch(&self) -> u64 {
        self.served.epoch()
    }

    /// Delta ops applied but not yet compacted into the resident
    /// snapshot.
    pub fn pending_ops(&self) -> usize {
        self.served.pending_ops()
    }

    /// Parses an NDJSON edge-delta stream and appends it to the pending
    /// log. All-or-nothing: a malformed or out-of-range line rejects the
    /// whole text and leaves the log untouched. The resident snapshot is
    /// unchanged until [`Self::compact`] publishes the merge.
    ///
    /// # Errors
    ///
    /// The typed [`DeltaError`] naming the offending line.
    pub fn apply_update(&self, ndjson: &str) -> Result<usize, DeltaError> {
        self.served.apply_update(ndjson)
    }

    /// [`Self::apply_update`] for one request line the daemon has
    /// already parsed: its one op, named line 1 in errors, as the same
    /// line sent through `apply_update` would be.
    pub(crate) fn apply_line(&self, line: &json::Value) -> Result<usize, DeltaError> {
        self.served.apply_line(line)
    }

    /// Merges the pending delta log into the graph, rebuilds the
    /// resident layout and publishes it with an epoch bump. In-flight
    /// waves keep the snapshot they loaded; the next wave sees the new
    /// one. An empty log is a no-op that keeps the current epoch.
    /// Merges, builds and publishes run one at a time (the initial
    /// build among them), so residents are published in merge order.
    pub fn compact(&self) -> ServeCompaction {
        self.served.compact()
    }

    /// Admits a query; the returned receiver yields its outcome once
    /// the wave it joined completes. Dropping the receiver mid-flight
    /// is fine — the wave still runs for its other lanes and the lost
    /// lane's send is discarded.
    ///
    /// # Errors
    ///
    /// [`VariantError::RootOutOfRange`] for a bad source and
    /// [`VariantError::NeedsWeights`] for SSSP on an unweighted graph.
    pub fn submit(&self, query: Query) -> Result<mpsc::Receiver<QueryOutcome>, VariantError> {
        if (query.source as usize) >= self.num_vertices {
            return Err(VariantError::RootOutOfRange {
                root: query.source,
                num_vertices: self.num_vertices,
            });
        }
        if query.kind == QueryKind::Sssp && !self.weighted {
            return Err(VariantError::NeedsWeights(Algo::Sssp));
        }
        let (tx, rx) = mpsc::channel();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut admission = self.shared.admission.lock().expect("admission poisoned");
            admission.queue.push_back(Pending {
                id,
                query,
                enqueued: Instant::now(),
                tx,
            });
        }
        self.shared.inflight.fetch_add(1, Ordering::Relaxed);
        self.shared.wake.notify_all();
        Ok(rx)
    }

    /// Stops the scheduler after draining every admitted query.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut admission = self.shared.admission.lock().expect("admission poisoned");
            admission.stopping = true;
        }
        self.shared.wake.notify_all();
        if let Some(t) = self.scheduler.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn scheduler_loop<E: EdgeRecord>(
    served: &Served<E>,
    config: ServeConfig,
    pool: &ThreadPool,
    shared: &Shared,
    ready: &AtomicBool,
    journal: &QueryJournal,
) {
    // The graph is loaded into a read-optimized layout and published by
    // the step compaction publishes through, so a compaction racing
    // start-up is never overwritten by this older build. Each wave
    // loads whichever resident is current when it launches.
    served.publish(false);
    let metrics = config.metrics.then(|| Metrics::new(config.layout.name()));
    ready.store(true, Ordering::Release);

    let runner = WaveRunner {
        num_vertices: served.graph.num_vertices(),
        pool,
        metrics: metrics.as_ref(),
        journal,
        slow_query: config.slow_query,
        shared,
    };
    let mut wave_id = 0u64;
    loop {
        let wave = {
            let mut admission = shared.admission.lock().expect("admission poisoned");
            // Sleep until there is work or we are told to stop.
            while admission.queue.is_empty() {
                if admission.stopping {
                    return;
                }
                admission = shared.wake.wait(admission).expect("admission poisoned");
            }
            // Batching window: give companions of the oldest query a
            // chance to arrive, up to a full wave of lanes — distinct
            // sources — of its kind. The queue only grows at the back
            // while we wait, so each wake-up scans just the arrivals.
            let key = admission.queue[0].query.kind.batch_key();
            let deadline = admission.queue[0].enqueued + config.batch_window;
            let mut sources: HashSet<VertexId> = HashSet::with_capacity(config.max_wave);
            let mut scanned = 0;
            loop {
                for pending in admission.queue.range(scanned..) {
                    if sources.len() < config.max_wave && pending.query.kind.batch_key() == key {
                        sources.insert(pending.query.source);
                    }
                }
                scanned = admission.queue.len();
                if sources.len() >= config.max_wave || admission.stopping {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, timeout) = shared
                    .wake
                    .wait_timeout(admission, deadline - now)
                    .expect("admission poisoned");
                admission = next;
                if timeout.timed_out() {
                    break;
                }
            }
            Wave::extract(&mut admission.queue, config.max_wave)
        };
        // Pin this wave to the currently published snapshot; a compact
        // racing us flips the pointer for *later* waves only. The epoch
        // read with it stamps the wave's journal events.
        let (snapshot, epoch) = served.resident.load_with_epoch();
        let resident = snapshot
            .as_ref()
            .as_ref()
            .expect("resident published before waves launch");
        runner.run(resident, wave, wave_id, epoch);
        wave_id += 1;
    }
}

/// Everything one wave execution needs, bundled so the scheduler loop
/// stays readable.
struct WaveRunner<'a> {
    num_vertices: usize,
    pool: &'a ThreadPool,
    metrics: Option<&'a Metrics>,
    journal: &'a QueryJournal,
    slow_query: Option<Duration>,
    shared: &'a Shared,
}

impl WaveRunner<'_> {
    fn run<E: EdgeRecord>(
        &self,
        resident: &ResidentLayout<E>,
        wave: Wave,
        wave_id: u64,
        epoch: u64,
    ) {
        let metrics = self.metrics;
        let journal = self.journal;
        let Wave { sources, riders } = wave;
        let kind = riders[0].1.query.kind;
        let algo_idx = kind.batch_key() as usize;
        let max_depth = match kind {
            QueryKind::Bfs | QueryKind::Sssp => u32::MAX,
            QueryKind::KHop => riders.iter().map(|(_, p)| p.query.depth).max().unwrap_or(0),
        };
        let ctx = ExecCtx::new(self.pool);
        let started = Instant::now();
        let nv = self.num_vertices;
        // `executed` is stamped when the rounds end: the lane split
        // after it is demux.
        let (results, iterations, executed): (Vec<QueryValues>, _, _) = ctx.scoped(|| match kind {
            QueryKind::Sssp => {
                let wave = SsspLanes::new(nv, &sources);
                let iterations = resident.run_wave(&wave, &ctx);
                let executed = Instant::now();
                let dists = wave.into_lanes().into_iter().map(QueryValues::Dists);
                (dists.collect(), iterations, executed)
            }
            QueryKind::Bfs | QueryKind::KHop => {
                let wave = BfsLanes::new(nv, &sources, max_depth);
                let iterations = resident.run_wave(&wave, &ctx);
                let executed = Instant::now();
                let levels = wave.into_lanes().into_iter().map(QueryValues::Levels);
                (levels.collect(), iterations, executed)
            }
        });
        let exec_seconds = (executed - started).as_secs_f64();

        let mut fanout: Vec<LaneFanout> = results.into_iter().map(LaneFanout::new).collect();
        for (lane, pending) in &riders {
            fanout[*lane].expect_rider(depth_bound(&pending.query));
        }

        // Fan out in admission order, not lane by lane: a client that
        // collects its answers in the order it asked drains each result
        // as it is cloned, so the clones of a hot lane never pile up
        // behind a colder lane's first rider.
        let lanes = sources.len();
        let wave_size = riders.len();
        for (lane, pending) in riders {
            let wait_seconds = (started - pending.enqueued).as_secs_f64();
            let (values, checksum) = fanout[lane].next_answer(depth_bound(&pending.query));
            let demux_seconds = executed.elapsed().as_secs_f64();
            // A disconnected receiver (client went away mid-flight)
            // just discards this rider's copy; the rest of the wave is
            // unaffected.
            let delivered = pending
                .tx
                .send(QueryOutcome {
                    values,
                    checksum,
                    wave_size,
                    wait_seconds,
                    exec_seconds,
                    demux_seconds,
                })
                .is_ok();
            self.shared.inflight.fetch_sub(1, Ordering::Relaxed);
            let done = Instant::now();
            let event = QueryEvent {
                id: pending.id,
                wave: wave_id,
                lane: lane as u8,
                lanes: lanes as u8,
                wave_size: u32::try_from(wave_size).unwrap_or(u32::MAX),
                kind,
                epoch,
                source: pending.query.source,
                depth: pending.query.depth,
                enqueued_us: journal.micros_since_epoch(pending.enqueued),
                started_us: journal.micros_since_epoch(started),
                executed_us: journal.micros_since_epoch(executed),
                done_us: journal.micros_since_epoch(done),
                checksum,
                outcome: if delivered {
                    EventOutcome::Answered
                } else {
                    EventOutcome::Disconnected
                },
            };
            journal.record(event);
            if let Some(threshold) = self.slow_query {
                if done - pending.enqueued >= threshold {
                    eprintln!("egraph-serve slow-query {}", event.to_ndjson());
                }
            }
            if let Some(m) = metrics {
                let stage = &m.stages[algo_idx];
                m.queries_total[algo_idx].inc();
                stage.queue.observe(wait_seconds);
                stage.exec.observe(exec_seconds);
                stage.demux.observe((done - executed).as_secs_f64());
                stage.total.observe((done - pending.enqueued).as_secs_f64());
            }
        }
        if let Some(m) = metrics {
            m.waves_total.inc();
            m.wave_size.observe(wave_size as f64);
            m.wave_lanes.observe(lanes as f64);
            m.wave_rounds[algo_idx].observe(iterations.len() as f64);
            let edges_scanned: usize = iterations.iter().map(|it| it.edges_scanned).sum();
            m.wave_edges_scanned[algo_idx].observe(edges_scanned as f64);
            m.coalesced_total[algo_idx].add((wave_size - lanes) as u64);
            m.inflight
                .set(self.shared.inflight.load(Ordering::Relaxed) as f64);
            let depth = {
                let admission = self.shared.admission.lock().expect("admission poisoned");
                admission.queue.len()
            };
            m.queue_depth.set(depth as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, sssp};
    use crate::metrics::{Direction, SyncMode};

    fn chain_graph(nv: usize) -> EdgeList<Edge> {
        let edges = (0..nv as u32 - 1).map(|v| Edge::new(v, v + 1)).collect();
        EdgeList::new(nv, edges).unwrap()
    }

    /// The single push BFS from `source` a wave's lane must match.
    fn single_bfs(adj: &AdjacencyList<Edge>, source: VertexId) -> bfs::BfsResult {
        let ctx = ExecCtx::default();
        bfs::run(adj, source, Direction::Push, SyncMode::Atomics, &ctx)
    }

    /// The single SSSP from `source` a wave's lane must match.
    fn single_sssp(adj: &AdjacencyList<WEdge>, source: VertexId) -> sssp::SsspResult {
        sssp::push_impl(adj, source, sssp::derive_delta(adj), &ExecCtx::default())
    }

    fn weighted_chain(nv: usize) -> EdgeList<WEdge> {
        let edges = (0..nv as u32 - 1)
            .map(|v| WEdge::new(v, v + 1, 1.0 + (v % 4) as f32))
            .collect();
        EdgeList::new(nv, edges).unwrap()
    }

    #[test]
    fn engine_answers_bfs_queries_identically_to_direct_kernel() {
        let graph = chain_graph(64);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&graph);
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(graph),
            ServeConfig {
                threads: 2,
                metrics: false,
                ..ServeConfig::default()
            },
        );
        let receivers: Vec<_> = (0..8)
            .map(|s| {
                engine.submit(Query {
                    kind: QueryKind::Bfs,
                    source: s * 7,
                    depth: 0,
                })
            })
            .collect::<Result<_, _>>()
            .unwrap();
        for (i, rx) in receivers.into_iter().enumerate() {
            let outcome = rx.recv().expect("scheduler answers");
            let single = single_bfs(&adj, (i as u32) * 7);
            assert_eq!(outcome.values, QueryValues::Levels(single.level));
        }
        engine.shutdown();
    }

    #[test]
    fn engine_batches_simultaneous_queries_into_one_wave() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(128)),
            ServeConfig {
                threads: 2,
                batch_window: Duration::from_millis(200),
                metrics: false,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        let receivers: Vec<_> = (0..16)
            .map(|s| {
                engine
                    .submit(Query {
                        kind: QueryKind::Bfs,
                        source: s,
                        depth: 0,
                    })
                    .unwrap()
            })
            .collect();
        let sizes: Vec<usize> = receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap().wave_size)
            .collect();
        assert!(
            sizes.iter().any(|&s| s > 1),
            "no batching despite a 200ms window: {sizes:?}"
        );
    }

    #[test]
    fn engine_answers_sssp_and_khop() {
        let graph = weighted_chain(40);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&graph);
        let engine = ServeEngine::start(
            ServeGraph::Weighted(graph),
            ServeConfig {
                threads: 1,
                metrics: false,
                ..ServeConfig::default()
            },
        );
        let rx_sssp = engine
            .submit(Query {
                kind: QueryKind::Sssp,
                source: 0,
                depth: 0,
            })
            .unwrap();
        let rx_khop = engine
            .submit(Query {
                kind: QueryKind::KHop,
                source: 0,
                depth: 3,
            })
            .unwrap();
        let sssp_out = rx_sssp.recv().unwrap();
        assert_eq!(
            sssp_out.values,
            QueryValues::Dists(single_sssp(&adj, 0).dist)
        );
        let khop_out = rx_khop.recv().unwrap();
        match khop_out.values {
            QueryValues::Levels(levels) => {
                assert_eq!(levels.iter().filter(|&&l| l != u32::MAX).count(), 4);
            }
            other => panic!("expected levels, got {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn engine_rejects_invalid_queries_with_typed_errors() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(8)),
            ServeConfig {
                threads: 1,
                metrics: false,
                ..ServeConfig::default()
            },
        );
        let err = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 99,
                depth: 0,
            })
            .unwrap_err();
        assert!(matches!(err, VariantError::RootOutOfRange { root: 99, .. }));
        let err = engine
            .submit(Query {
                kind: QueryKind::Sssp,
                source: 0,
                depth: 0,
            })
            .unwrap_err();
        assert!(matches!(err, VariantError::NeedsWeights(Algo::Sssp)));
    }

    #[test]
    fn dropped_receiver_does_not_wedge_the_wave() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(32)),
            ServeConfig {
                threads: 1,
                batch_window: Duration::from_millis(300),
                metrics: false,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        let bfs_from = |source| {
            engine
                .submit(Query {
                    kind: QueryKind::Bfs,
                    source,
                    depth: 0,
                })
                .unwrap()
        };
        // Source 0 has three riders on one lane and the middle one goes
        // away; source 1 is a lane of its own whose only rider does.
        let first = bfs_from(0);
        drop(bfs_from(0));
        drop(bfs_from(1));
        let last = bfs_from(0);
        for keep in [first, last] {
            let outcome = keep.recv().expect("surviving rider still answered");
            assert_eq!(outcome.values.reachable(), 32);
            assert_eq!(outcome.wave_size, 4);
        }
        engine.shutdown();
    }

    /// A queue entry whose answer nobody collects.
    fn queued(id: u64, kind: QueryKind, source: VertexId) -> Pending {
        Pending {
            id,
            query: Query {
                kind,
                source,
                depth: 0,
            },
            enqueued: Instant::now(),
            tx: mpsc::channel().0,
        }
    }

    #[test]
    fn a_wave_is_the_longest_run_of_its_kind_that_fits_the_lanes() {
        // bfs 5, sssp 9, bfs 5, bfs 6, bfs 7 (needs a third lane), bfs 5.
        let mut queue: VecDeque<Pending> = [
            (QueryKind::Bfs, 5),
            (QueryKind::Sssp, 9),
            (QueryKind::Bfs, 5),
            (QueryKind::Bfs, 6),
            (QueryKind::Bfs, 7),
            (QueryKind::Bfs, 5),
        ]
        .into_iter()
        .enumerate()
        .map(|(id, (kind, source))| queued(id as u64, kind, source))
        .collect();
        let wave = Wave::extract(&mut queue, 2);
        assert_eq!(wave.sources, vec![5, 6]);
        let riders: Vec<(usize, u64)> = wave.riders.iter().map(|(l, p)| (*l, p.id)).collect();
        assert_eq!(riders, vec![(0, 0), (0, 2), (1, 3)]);
        // The run ended at id 4; id 5 names a source that has a lane but
        // stays behind it, so bfs answers never overtake each other.
        let left: Vec<u64> = queue.iter().map(|p| p.id).collect();
        assert_eq!(left, vec![1, 4, 5]);

        let wave = Wave::extract(&mut queue, 2);
        assert_eq!(wave.sources, vec![9], "the oldest query picks the kind");
        let wave = Wave::extract(&mut queue, 2);
        assert_eq!(wave.sources, vec![7, 5]);
        assert!(queue.is_empty());
    }

    #[test]
    fn lane_fanout_hashes_once_and_hands_the_original_to_the_last_rider() {
        let ptr_of = |values: &QueryValues| match values {
            QueryValues::Levels(l) => l.as_ptr(),
            QueryValues::Dists(_) => unreachable!(),
        };
        let raw = QueryValues::Levels(vec![0, 1, 2, 3, u32::MAX]);
        let kernel_output = raw.clone();
        let original = ptr_of(&kernel_output);
        let mut lane = LaneFanout::new(kernel_output);
        for _ in 0..3 {
            lane.expect_rider(u32::MAX);
        }
        let answers: Vec<_> = (0..3).map(|_| lane.next_answer(u32::MAX)).collect();
        for (values, checksum) in &answers {
            assert_eq!(values, &raw);
            assert_eq!(*checksum, raw.checksum());
        }
        assert_ne!(ptr_of(&answers[0].0), original, "early riders get clones");
        assert_eq!(ptr_of(&answers[2].0), original, "the last takes the result");
        assert!(lane.raw.is_none() && lane.answers[0].built.is_none());
    }

    /// Levels of a BFS from `source`, cut at `bound` hops.
    fn khop_levels(adj: &AdjacencyList<Edge>, source: VertexId, bound: u32) -> QueryValues {
        let mut values = QueryValues::Levels(single_bfs(adj, source).level);
        values.cut_levels(bound);
        values
    }

    #[test]
    fn identical_simultaneous_queries_share_one_lane() {
        let graph = chain_graph(64);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&graph);
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(graph),
            ServeConfig {
                threads: 2,
                batch_window: Duration::from_millis(300),
                metrics: false,
                journal_capacity: 256,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        const N: usize = 100;
        let receivers: Vec<_> = (0..N)
            .map(|_| {
                engine
                    .submit(Query {
                        kind: QueryKind::Bfs,
                        source: 11,
                        depth: 0,
                    })
                    .unwrap()
            })
            .collect();
        let want = QueryValues::Levels(single_bfs(&adj, 11).level);
        for rx in receivers {
            let outcome = rx.recv().unwrap();
            assert_eq!(outcome.wave_size, N, "one wave answered all of them");
            assert_eq!(outcome.values, want);
            assert_eq!(outcome.checksum, want.checksum());
        }
        wait_recorded(&engine, N as u64);
        for event in engine.journal().dump(N) {
            assert_eq!(
                (event.wave, event.lane, event.lanes),
                (0, 0, 1),
                "{event:?}"
            );
            assert_eq!(event.wave_size as usize, N);
        }
        engine.shutdown();
    }

    #[test]
    fn khop_riders_of_one_source_share_a_lane_and_keep_their_own_depth() {
        let graph = chain_graph(32);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&graph);
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(graph),
            ServeConfig {
                threads: 1,
                batch_window: Duration::from_millis(300),
                metrics: false,
                journal_capacity: 16,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        // Two riders at depth 2 so one answer is both cloned and taken.
        let depths = [1u32, 3, 2, 2];
        let receivers: Vec<_> = depths
            .iter()
            .map(|&depth| {
                engine
                    .submit(Query {
                        kind: QueryKind::KHop,
                        source: 4,
                        depth,
                    })
                    .unwrap()
            })
            .collect();
        for (rx, &depth) in receivers.into_iter().zip(&depths) {
            let outcome = rx.recv().unwrap();
            let want = khop_levels(&adj, 4, depth);
            assert_eq!(outcome.values, want, "depth {depth}");
            assert_eq!(outcome.values.reachable(), depth as usize + 1);
            assert_eq!(outcome.checksum, want.checksum());
            assert_eq!(outcome.wave_size, depths.len());
        }
        wait_recorded(&engine, depths.len() as u64);
        for event in engine.journal().dump(16) {
            assert_eq!((event.lane, event.lanes), (0, 1), "{event:?}");
        }
        engine.shutdown();
    }

    #[test]
    fn duplicates_ride_existing_lanes_so_65_sources_need_exactly_two_waves() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(128)),
            ServeConfig {
                threads: 2,
                batch_window: Duration::from_millis(300),
                metrics: false,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        // Sources 0..=62 once each, then 200 repeats of the first ten:
        // 63 lanes, so the window keeps the wave open. Source 63 fills
        // the 64th lane (the wave may launch) and source 64 is the one
        // that cannot fit, whichever of the two the scheduler sees last.
        let mut sources: Vec<VertexId> = (0..63).collect();
        sources.extend((0..200).map(|i| i % 10));
        sources.extend([63, 64]);
        let receivers: Vec<_> = sources
            .iter()
            .map(|&source| {
                engine
                    .submit(Query {
                        kind: QueryKind::Bfs,
                        source,
                        depth: 0,
                    })
                    .unwrap()
            })
            .collect();
        let sizes: Vec<usize> = receivers
            .into_iter()
            .map(|rx| rx.recv().unwrap().wave_size)
            .collect();
        let (last, first_wave) = sizes.split_last().unwrap();
        assert!(first_wave.iter().all(|&s| s == 264), "{sizes:?}");
        assert_eq!(*last, 1, "{sizes:?}");
        engine.shutdown();
    }

    #[test]
    fn grid_and_ccsr_layouts_answer_identically_to_adjacency() {
        let unweighted = chain_graph(96);
        let weighted = weighted_chain(96);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&unweighted);
        let wadj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&weighted);
        let want_levels = QueryValues::Levels(single_bfs(&adj, 5).level);
        let want_dists = QueryValues::Dists(single_sssp(&wadj, 5).dist);
        for layout in [Layout::Grid, Layout::Ccsr] {
            let engine = ServeEngine::start(
                ServeGraph::Unweighted(unweighted.clone()),
                ServeConfig {
                    threads: 2,
                    layout,
                    metrics: false,
                    ..ServeConfig::default()
                },
            );
            engine.wait_ready();
            assert_eq!(engine.layout_name(), layout.name());
            assert!(
                engine.resident_bytes() > 0,
                "{layout:?} reports zero resident bytes"
            );
            let rx = engine
                .submit(Query {
                    kind: QueryKind::Bfs,
                    source: 5,
                    depth: 0,
                })
                .unwrap();
            assert_eq!(rx.recv().unwrap().values, want_levels, "{layout:?} bfs");
            engine.shutdown();

            let engine = ServeEngine::start(
                ServeGraph::Weighted(weighted.clone()),
                ServeConfig {
                    threads: 2,
                    layout,
                    metrics: false,
                    ..ServeConfig::default()
                },
            );
            let rx = engine
                .submit(Query {
                    kind: QueryKind::Sssp,
                    source: 5,
                    depth: 0,
                })
                .unwrap();
            assert_eq!(rx.recv().unwrap().values, want_dists, "{layout:?} sssp");
            engine.shutdown();
        }
    }

    #[test]
    #[should_panic(expected = "no servable per-vertex index")]
    fn edge_layout_is_rejected_at_startup() {
        let _ = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(8)),
            ServeConfig {
                threads: 1,
                layout: Layout::EdgeList,
                metrics: false,
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn checksum_is_stable_and_value_sensitive() {
        let a = QueryValues::Levels(vec![0, 1, 2, u32::MAX]);
        let b = QueryValues::Levels(vec![0, 1, 2, u32::MAX]);
        let c = QueryValues::Levels(vec![0, 1, 3, u32::MAX]);
        assert_eq!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
    }

    /// 37 values: four whole 8-word chunks and a 5-word tail.
    fn sample_levels() -> Vec<u32> {
        (0..37u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> 7)
            .collect()
    }

    #[test]
    fn one_flipped_bit_anywhere_changes_the_checksum() {
        let levels = sample_levels();
        let base = QueryValues::Levels(levels.clone()).checksum();
        for i in 0..levels.len() {
            for bit in 0..32 {
                let mut flipped = levels.clone();
                flipped[i] ^= 1 << bit;
                let sum = QueryValues::Levels(flipped).checksum();
                assert_ne!(sum, base, "value {i} bit {bit}");
            }
        }
        let dists: Vec<f32> = levels.iter().map(|&l| l as f32 * 0.5).collect();
        let base = QueryValues::Dists(dists.clone()).checksum();
        for i in 0..dists.len() {
            for bit in 0..32 {
                let mut flipped = dists.clone();
                flipped[i] = f32::from_bits(flipped[i].to_bits() ^ 1 << bit);
                let sum = QueryValues::Dists(flipped).checksum();
                assert_ne!(sum, base, "distance {i} bit {bit}");
            }
        }
    }

    #[test]
    fn swapping_two_values_1_to_8_apart_changes_the_checksum() {
        let levels = sample_levels();
        let base = QueryValues::Levels(levels.clone()).checksum();
        for distance in 1..=8 {
            for i in 0..levels.len() - distance {
                let mut swapped = levels.clone();
                swapped.swap(i, i + distance);
                assert_ne!(swapped, levels);
                let sum = QueryValues::Levels(swapped).checksum();
                assert_ne!(sum, base, "values {i} and {}", i + distance);
            }
        }
    }

    #[test]
    fn a_truncated_lane_changes_the_checksum() {
        // Trailing unreached levels: a cut keeps every remaining value.
        let mut levels = sample_levels();
        levels.extend([u32::MAX; 9]);
        let base = QueryValues::Levels(levels.clone()).checksum();
        for len in 0..levels.len() {
            let sum = QueryValues::Levels(levels[..len].to_vec()).checksum();
            assert_ne!(sum, base, "cut to {len} values");
        }
        let dists = QueryValues::Dists(vec![f32::INFINITY; 16]).checksum();
        assert_ne!(
            QueryValues::Dists(vec![f32::INFINITY; 15]).checksum(),
            dists
        );
        assert_ne!(QueryValues::Dists(Vec::new()).checksum(), dists);
    }

    #[test]
    fn equal_values_give_an_equal_checksum_and_levels_hash_their_bits() {
        let levels = sample_levels();
        let a = QueryValues::Levels(levels.clone());
        assert_eq!(a.checksum(), QueryValues::Levels(levels.clone()).checksum());
        // The hash reads value bits: distances with a level's bits hash
        // like the level.
        let same_bits = levels.iter().map(|&l| f32::from_bits(l)).collect();
        assert_eq!(a.checksum(), QueryValues::Dists(same_bits).checksum());
    }

    /// Polls until the journal holds `n` events (the scheduler records
    /// them after the result send, so a `recv` can race the deposit).
    fn wait_recorded(engine: &ServeEngine, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.journal().recorded() < n {
            assert!(
                Instant::now() < deadline,
                "journal never reached {n} events"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn journal_records_full_lifecycle_events() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(64)),
            ServeConfig {
                threads: 1,
                metrics: false,
                journal_capacity: 16,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        let rx = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 3,
                depth: 0,
            })
            .unwrap();
        let outcome = rx.recv().unwrap();
        assert_eq!(outcome.checksum, outcome.values.checksum());
        assert!(outcome.demux_seconds >= 0.0);
        wait_recorded(&engine, 1);
        let events = engine.journal().dump(8);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, QueryKind::Bfs);
        assert_eq!(e.source, 3);
        assert_eq!(e.checksum, outcome.checksum);
        assert_eq!(e.outcome, EventOutcome::Answered);
        assert!(e.enqueued_us <= e.started_us, "{e:?}");
        assert!(e.started_us <= e.executed_us, "{e:?}");
        assert!(e.executed_us <= e.done_us, "{e:?}");
        engine.shutdown();
    }

    #[test]
    fn journal_marks_disconnected_lanes() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(32)),
            ServeConfig {
                threads: 1,
                batch_window: Duration::from_millis(100),
                metrics: false,
                journal_capacity: 16,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        let keep = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 0,
                depth: 0,
            })
            .unwrap();
        let drop_me = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 1,
                depth: 0,
            })
            .unwrap();
        drop(drop_me);
        keep.recv().expect("surviving query answered");
        wait_recorded(&engine, 2);
        let events = engine.journal().dump(8);
        let outcomes: Vec<(u32, EventOutcome)> =
            events.iter().map(|e| (e.source, e.outcome)).collect();
        assert!(
            outcomes.contains(&(1, EventOutcome::Disconnected)),
            "{outcomes:?}"
        );
        assert!(
            outcomes.contains(&(0, EventOutcome::Answered)),
            "{outcomes:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn serve_metrics_pass_the_naming_lint_and_expose_stage_histograms() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(32)),
            ServeConfig {
                threads: 1,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        let rx = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 0,
                depth: 0,
            })
            .unwrap();
        rx.recv().unwrap();
        wait_recorded(&engine, 1);
        let violations = egraph_metrics::global().lint_names();
        assert!(violations.is_empty(), "naming violations: {violations:?}");
        let rendered = egraph_metrics::global().render();
        for name in [
            "egraph_serve_queue_seconds",
            "egraph_serve_exec_seconds",
            "egraph_serve_demux_seconds",
            "egraph_serve_query_seconds",
            "egraph_serve_queue_depth",
            "egraph_serve_coalesced_queries_total",
            "egraph_serve_wave_lanes",
            "egraph_serve_wave_rounds",
            "egraph_serve_wave_edges_scanned",
        ] {
            assert!(rendered.contains(name), "missing {name} in exposition");
        }
        engine.shutdown();
    }

    #[test]
    fn updates_apply_and_compact_republishes_under_a_new_epoch() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(16)),
            ServeConfig {
                threads: 1,
                metrics: false,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        assert_eq!(engine.epoch(), 1, "initial build publishes epoch 1");
        let bfs_levels = |engine: &ServeEngine| {
            let rx = engine
                .submit(Query {
                    kind: QueryKind::Bfs,
                    source: 0,
                    depth: 0,
                })
                .unwrap();
            match rx.recv().unwrap().values {
                QueryValues::Levels(l) => l,
                other => panic!("expected levels, got {other:?}"),
            }
        };
        assert_eq!(bfs_levels(&engine)[15], 15);

        // A shortcut edge is pending but invisible until compaction.
        let applied = engine
            .apply_update("{\"op\":\"insert\",\"src\":0,\"dst\":15}\n")
            .unwrap();
        assert_eq!(applied, 1);
        assert_eq!(engine.pending_ops(), 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(bfs_levels(&engine)[15], 15, "pre-compaction snapshot");

        let c = engine.compact();
        assert_eq!(c.epoch, 2);
        assert_eq!(c.merged_ops, 1);
        assert_eq!(engine.pending_ops(), 0);
        assert_eq!(bfs_levels(&engine)[15], 1, "post-compaction snapshot");

        // Out-of-range and malformed streams are typed errors that
        // leave the log untouched.
        let err = engine
            .apply_update("{\"op\":\"insert\",\"src\":0,\"dst\":99}\n")
            .unwrap_err();
        assert!(matches!(err, DeltaError::VertexOutOfRange { .. }), "{err}");
        assert!(engine.apply_update("not json").is_err());
        assert_eq!(engine.pending_ops(), 0);

        // An empty log compacts to a no-op at the same epoch.
        let c = engine.compact();
        assert_eq!(c.epoch, 2);
        assert_eq!(c.merged_ops, 0);
        engine.shutdown();
    }

    #[test]
    fn delta_layout_serves_and_survives_compaction() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(32)),
            ServeConfig {
                threads: 1,
                layout: Layout::Delta,
                metrics: false,
                ..ServeConfig::default()
            },
        );
        engine.wait_ready();
        assert_eq!(engine.layout_name(), "delta");
        assert!(engine.resident_bytes() > 0);
        let rx = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 0,
                depth: 0,
            })
            .unwrap();
        assert_eq!(rx.recv().unwrap().values.reachable(), 32);
        engine
            .apply_update("{\"op\":\"delete\",\"src\":15,\"dst\":16}\n")
            .unwrap();
        let c = engine.compact();
        assert_eq!(c.epoch, 2);
        let rx = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 0,
                depth: 0,
            })
            .unwrap();
        assert_eq!(
            rx.recv().unwrap().values.reachable(),
            16,
            "chain severed at 15→16"
        );
        engine.shutdown();
    }

    #[test]
    fn a_compaction_racing_start_up_is_never_overwritten_by_the_initial_build() {
        for round in 0..50u64 {
            let engine = ServeEngine::start(
                ServeGraph::Unweighted(chain_graph(16)),
                ServeConfig {
                    threads: 1,
                    metrics: false,
                    ..ServeConfig::default()
                },
            );
            // Land the compaction at a different point of start-up
            // each round: before, during and after the initial build.
            std::thread::sleep(Duration::from_micros(round * 10));
            engine
                .apply_update("{\"op\":\"insert\",\"src\":0,\"dst\":15}\n")
                .unwrap();
            assert_eq!(engine.compact().merged_ops, 1);
            engine.wait_ready();
            let rx = engine
                .submit(Query {
                    kind: QueryKind::Bfs,
                    source: 0,
                    depth: 0,
                })
                .unwrap();
            match rx.recv().unwrap().values {
                QueryValues::Levels(levels) => {
                    assert_eq!(
                        levels[15], 1,
                        "round {round}: the merged shortcut is served"
                    )
                }
                other => panic!("expected levels, got {other:?}"),
            }
            engine.shutdown();
        }
    }

    #[test]
    fn queue_depth_reports_waiting_queries() {
        let engine = ServeEngine::start(
            ServeGraph::Unweighted(chain_graph(8)),
            ServeConfig {
                threads: 1,
                metrics: false,
                ..ServeConfig::default()
            },
        );
        // Before the layout build finishes the scheduler drains
        // nothing, so submissions pile up visibly.
        assert_eq!(engine.queue_depth(), 0);
        engine.wait_ready();
        let rx = engine
            .submit(Query {
                kind: QueryKind::Bfs,
                source: 0,
                depth: 0,
            })
            .unwrap();
        rx.recv().unwrap();
        assert_eq!(engine.queue_depth(), 0, "drained after the wave");
        engine.shutdown();
    }
}
