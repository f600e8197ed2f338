//! The unified variant-dispatch API: one typed identifier per
//! algorithm × layout × direction combination and one resolver,
//! [`run_variant`], the only public way to run one: the CLI, serve,
//! the testkit, the bench binaries and the standing benchmark all go
//! through it, and the kernels behind it are crate-private. Beside it
//! only `sssp::delta_stepping` (an explicit bucket width) and the
//! `Incremental*` engines reach a kernel.
//!
//! ```
//! use egraph_core::exec::ExecCtx;
//! use egraph_core::types::{Edge, EdgeList};
//! use egraph_core::variant::{PreparedGraph, RunParams, VariantId};
//!
//! let graph = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
//! let prepared = PreparedGraph::new(&graph);
//! let id: VariantId = "bfs/adj/push".parse().unwrap();
//! let run = egraph_core::variant::run_variant(
//!     &id,
//!     &ExecCtx::new(None),
//!     &prepared,
//!     &RunParams::default(),
//! )
//! .unwrap();
//! assert_eq!(run.output.as_bfs().unwrap().reachable_count(), 3);
//! ```
//!
//! Unsupported combinations are a typed
//! [`VariantError::Unsupported`] naming the combination — never a
//! panic; [`supported_variants`] enumerates the full support matrix so
//! data-driven callers (the conformance matrix, shell completion) stay
//! in sync with the resolver by construction.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::algo::{bfs, pagerank, spmv, sssp, wcc};
use crate::engine::PushOnly;
use crate::exec::ExecCtx;
use crate::layout::{
    Adjacency, AdjacencyList, CcsrAdjacency, DeltaAdjacency, DeltaList, DeltaLog, EdgeDirection,
    EdgeStream, Grid, NeighborAccess, Sides, VertexLayout,
};
use crate::metrics::timed;
pub use crate::metrics::{Direction, SyncMode};
use crate::preprocess::{compress_sorted_csr, CcsrBuilder, CsrBuilder, GridBuilder, Strategy};
use crate::types::{EdgeList, EdgeRecord, VertexId};

/// The algorithms of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Breadth-first search.
    Bfs,
    /// PageRank power iteration.
    Pagerank,
    /// Single-source shortest paths.
    Sssp,
    /// Weakly connected components.
    Wcc,
    /// Sparse matrix-vector multiplication.
    Spmv,
}

impl Algo {
    /// All algorithms, in report order.
    pub const ALL: [Algo; 5] = [Algo::Bfs, Algo::Pagerank, Algo::Sssp, Algo::Wcc, Algo::Spmv];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Bfs => "bfs",
            Algo::Pagerank => "pagerank",
            Algo::Sssp => "sssp",
            Algo::Wcc => "wcc",
            Algo::Spmv => "spmv",
        }
    }

    /// Whether the algorithm consumes edge weights (and therefore
    /// requires a weighted graph).
    pub fn needs_weights(self) -> bool {
        matches!(self, Algo::Sssp | Algo::Spmv)
    }
}

/// The edge layouts of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// CSR adjacency lists.
    Adjacency,
    /// The flat edge array (no preprocessing).
    EdgeList,
    /// The 2-D grid of edge blocks.
    Grid,
    /// Compressed CSR: sorted neighbor lists delta-coded and bit-packed
    /// at one width per chunk, decoded on the fly (DESIGN.md §14).
    Ccsr,
    /// The mutable layout: a frozen CSR plus an append-only
    /// insert/delete log overlay (DESIGN.md §16). With an empty log it
    /// behaves exactly like `Adjacency`.
    Delta,
}

impl Layout {
    /// All layouts, in report order.
    pub const ALL: [Layout; 5] = [
        Layout::Adjacency,
        Layout::EdgeList,
        Layout::Grid,
        Layout::Ccsr,
        Layout::Delta,
    ];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Adjacency => "adj",
            Layout::EdgeList => "edge",
            Layout::Grid => "grid",
            Layout::Ccsr => "ccsr",
            Layout::Delta => "delta",
        }
    }
}

impl FromStr for SyncMode {
    type Err = VariantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "atomics" => Ok(SyncMode::Atomics),
            "locks" => Ok(SyncMode::Locks),
            other => Err(VariantError::Parse {
                what: "sync mode",
                got: other.to_string(),
                expected: "atomics|locks",
            }),
        }
    }
}

impl FromStr for Algo {
    type Err = VariantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| VariantError::Parse {
                what: "algorithm",
                got: s.to_string(),
                expected: "bfs|pagerank|sssp|wcc|spmv",
            })
    }
}

impl FromStr for Layout {
    type Err = VariantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Layout::ALL
            .into_iter()
            .find(|l| l.name() == s)
            .ok_or_else(|| VariantError::Parse {
                what: "layout",
                got: s.to_string(),
                expected: "adj|edge|grid|ccsr|delta",
            })
    }
}

impl FromStr for Direction {
    type Err = VariantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Direction::ALL
            .into_iter()
            .find(|d| d.name() == s)
            .ok_or_else(|| VariantError::Parse {
                what: "flow direction",
                got: s.to_string(),
                expected: "push|pull|push-pull",
            })
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for SyncMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One algorithm × layout × direction combination, e.g.
/// `bfs/adj/push-pull`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantId {
    /// The algorithm.
    pub algo: Algo,
    /// The edge layout.
    pub layout: Layout,
    /// The information-flow direction.
    pub direction: Direction,
}

impl VariantId {
    /// Creates an identifier (which may name an unsupported
    /// combination — [`run_variant`] reports those as typed errors).
    pub fn new(algo: Algo, layout: Layout, direction: Direction) -> Self {
        Self {
            algo,
            layout,
            direction,
        }
    }
}

impl fmt::Display for VariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.algo, self.layout, self.direction)
    }
}

impl FromStr for VariantId {
    type Err = VariantError;

    /// Parses `algo/layout/direction` (e.g. `"pagerank/grid/pull"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('/');
        let (Some(algo), Some(layout), Some(direction), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(VariantError::Parse {
                what: "variant id",
                got: s.to_string(),
                expected: "algo/layout/direction",
            });
        };
        Ok(Self {
            algo: algo.parse()?,
            layout: layout.parse()?,
            direction: direction.parse()?,
        })
    }
}

/// Typed dispatch failures. Every mis-addressed combination surfaces
/// here; [`run_variant`] never panics on its inputs.
#[derive(Debug, Clone)]
pub enum VariantError {
    /// The combination names no implemented variant.
    Unsupported(VariantId),
    /// The algorithm consumes weights but the graph is unweighted.
    NeedsWeights(Algo),
    /// A requested grid side the graph cannot be cut into (see
    /// [`max_grid_side`]).
    GridSide {
        /// The requested side.
        side: usize,
        /// The largest side this graph accepts.
        max: usize,
    },
    /// A traversal root outside the vertex range.
    RootOutOfRange {
        /// The requested root.
        root: VertexId,
        /// The graph's vertex count.
        num_vertices: usize,
    },
    /// A component string did not parse.
    Parse {
        /// What was being parsed ("algorithm", "layout", ...).
        what: &'static str,
        /// The offending input.
        got: String,
        /// The accepted spellings.
        expected: &'static str,
    },
}

impl fmt::Display for VariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariantError::Unsupported(id) => write!(
                f,
                "unsupported variant {id}: {} does not implement layout '{}' with flow '{}'",
                id.algo, id.layout, id.direction
            ),
            VariantError::NeedsWeights(algo) => write!(
                f,
                "{algo} needs a weighted graph (generate with --weighted true)"
            ),
            VariantError::GridSide { side, max } => {
                write!(f, "grid side {side} out of range (expected 1..={max})")
            }
            VariantError::RootOutOfRange { root, num_vertices } => {
                write!(
                    f,
                    "root {root} out of range (graph has {num_vertices} vertices)"
                )
            }
            VariantError::Parse {
                what,
                got,
                expected,
            } => write!(f, "unknown {what} '{got}' (expected {expected})"),
        }
    }
}

impl std::error::Error for VariantError {}

/// Reports whether the combination is implemented.
pub fn is_supported(id: &VariantId) -> bool {
    use Direction::*;
    use Layout::*;
    let dirs: &[Direction] = match (id.algo, id.layout) {
        // The compressed CSR decodes to the same spans the kernels
        // iterate on uncompressed CSR, and the delta layout overlays
        // the same spans over a frozen CSR, so both support sets
        // mirror `Adjacency` exactly.
        (Algo::Bfs, Adjacency | Ccsr | Delta) => &[Push, Pull, PushPull],
        (Algo::Bfs, EdgeList | Grid) => &[Push],
        // One union-find pass reads each stored edge once, in whatever
        // direction it is stored: direction is not an axis of WCC.
        (Algo::Wcc, _) => &[Push],
        (Algo::Pagerank, Adjacency | Ccsr | Delta) => &[Push, Pull],
        (Algo::Pagerank, EdgeList) => &[Push],
        (Algo::Pagerank, Grid) => &[Push, Pull],
        (Algo::Sssp, Adjacency | Ccsr | Delta | EdgeList) => &[Push],
        (Algo::Sssp, Grid) => &[],
        (Algo::Spmv, Adjacency | Ccsr | Delta) => &[Push, Pull],
        (Algo::Spmv, EdgeList) => &[Push],
        (Algo::Spmv, Grid) => &[Push],
    };
    dirs.contains(&id.direction)
}

/// Every algorithm × layout × direction id, supported or not, in stable
/// report order.
fn all_ids() -> impl Iterator<Item = VariantId> {
    Algo::ALL.into_iter().flat_map(|algo| {
        Layout::ALL.into_iter().flat_map(move |layout| {
            (Direction::ALL.into_iter()).map(move |dir| VariantId::new(algo, layout, dir))
        })
    })
}

/// Every implemented combination, in stable report order. The
/// conformance matrix iterates this list, so a variant added to the
/// resolver is automatically covered.
pub fn supported_variants() -> Vec<VariantId> {
    all_ids().filter(is_supported).collect()
}

/// Whether [`RunParams::sync`] selects between distinct
/// implementations for this variant (atomic vs. locked push).
pub fn sync_matters(id: &VariantId) -> bool {
    matches!(
        (id.algo, id.layout, id.direction),
        (
            Algo::Bfs,
            Layout::Adjacency | Layout::Ccsr | Layout::Delta,
            Direction::Push
        ) | (
            Algo::Pagerank,
            Layout::Adjacency | Layout::Ccsr | Layout::Delta,
            Direction::Push
        ) | (Algo::Pagerank, Layout::EdgeList, Direction::Push)
            | (Algo::Pagerank, Layout::Grid, Direction::Push)
    )
}

/// Whether the variant's *answer* is bit-identical across thread
/// counts: single-writer float accumulation in a fixed order (or
/// integer / min-based results, which are order-independent).
/// Schedule-dependent `f32` reordering (atomic or locked push
/// accumulation) returns `false`. DESIGN.md §11 derives the
/// classification. (BFS, WCC and SSSP also repeat their iteration
/// records exactly.)
pub fn cross_thread_deterministic(id: &VariantId, sync: SyncMode) -> bool {
    match id.algo {
        // BFS levels, union-find's component minima and SSSP's
        // min-over-path-sums are order-independent on every schedule.
        Algo::Bfs | Algo::Wcc | Algo::Sssp => true,
        Algo::Pagerank => match (id.layout, id.direction) {
            (_, Direction::Pull) => true,
            // Unlocked grid push owns its column exclusively.
            (Layout::Grid, Direction::Push) => sync == SyncMode::Atomics,
            _ => false,
        },
        Algo::Spmv => matches!(
            (id.layout, id.direction),
            (_, Direction::Pull) | (Layout::Grid, Direction::Push)
        ),
    }
}

/// The default grid side for a graph of `nv` vertices (the CLI's
/// historical heuristic: one column per 256k vertices, clamped — and
/// never past [`max_grid_side`], so the default is a side every caller
/// may also ask for).
pub fn default_grid_side(nv: usize) -> usize {
    (nv / (1 << 18)).clamp(8, 256).min(max_grid_side(nv))
}

/// The largest side a requested grid over `nv` vertices may have. A
/// side beyond the vertex count only adds empty rows and columns, and
/// the grid keeps `side² + 1` cell offsets of 8 bytes each whatever the
/// graph holds, so the side is also capped at 4 096: 128 MiB of
/// offsets, 16× the side the paper found best (256).
pub fn max_grid_side(nv: usize) -> usize {
    nv.clamp(1, 4096)
}

/// Everything a variant run needs besides the graph: traversal root,
/// PageRank configuration, push synchronization and the SpMV input
/// vector.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunParams<'a> {
    /// BFS/SSSP source vertex.
    pub root: VertexId,
    /// PageRank configuration (iterations, damping).
    pub pagerank: pagerank::PagerankConfig,
    /// Push synchronization (ignored where [`sync_matters`] is false).
    pub sync: SyncMode,
    /// SpMV input vector; all-ones when `None`.
    pub x: Option<&'a [f32]>,
}

/// The per-family cache of a [`PreparedGraph`]: the out- and the
/// in-direction of one indexed layout, each a lazily built
/// one-direction `(layout, build seconds)`.
struct DirCache<D>([OnceLock<(Sides<D>, f64)>; 2]);

impl<D> Default for DirCache<D> {
    fn default() -> Self {
        Self([OnceLock::new(), OnceLock::new()])
    }
}

impl<D> DirCache<D> {
    /// The one-direction layout `side` names (`Out` or `In`), built by
    /// `build(side)` on first use.
    fn side(
        &self,
        side: EdgeDirection,
        build: impl FnOnce(EdgeDirection) -> (Sides<D>, f64),
    ) -> &(Sides<D>, f64) {
        let index = match side {
            EdgeDirection::Out => 0,
            EdgeDirection::In => 1,
            EdgeDirection::Both => unreachable!("a cache slot holds one direction"),
        };
        self.0[index].get_or_init(|| build(side))
    }

    /// The directions `dir` names, borrowed from the cache (each built
    /// on first use), and the sum of their build seconds.
    fn view<E: EdgeRecord>(
        &self,
        dir: EdgeDirection,
        build: impl Fn(EdgeDirection) -> (Sides<D>, f64),
    ) -> (Sides<&D>, f64)
    where
        D: NeighborAccess<E>,
    {
        let out = (dir != EdgeDirection::In).then(|| self.side(EdgeDirection::Out, &build));
        let inc = (dir != EdgeDirection::Out).then(|| self.side(EdgeDirection::In, &build));
        let seconds = out.map_or(0.0, |o| o.1) + inc.map_or(0.0, |i| i.1);
        let view = Sides::pair(out.map(|o| o.0.out()), inc.map(|i| i.0.incoming()));
        (view, seconds)
    }
}

/// A graph plus lazily built, cached layouts. Each direction of an
/// indexed layout (adj, ccsr, delta) and the grid is built at most
/// once, on first use, under whatever pool and recorder the requesting
/// [`run_variant`] call supplies — so one `PreparedGraph` can serve
/// many variant runs without rebuilding (a push-pull run borrows the
/// out- and in-direction that push and pull runs built), while a
/// single-variant caller pays exactly the preprocessing cost of the
/// directions it asked for.
pub struct PreparedGraph<'a, E: EdgeRecord> {
    edges: &'a EdgeList<E>,
    strategy: Strategy,
    grid_strategy: Option<Strategy>,
    sorted: bool,
    side: Option<usize>,
    deltas: Option<&'a DeltaLog<E>>,
    csr: DirCache<Adjacency<E>>,
    ccsr: DirCache<CcsrAdjacency<E>>,
    dcsr: DirCache<DeltaAdjacency<E>>,
    grid: OnceLock<(Grid<E>, f64)>,
    degrees: OnceLock<Vec<u32>>,
    delta_degrees: OnceLock<Vec<u32>>,
}

impl<'a, E: EdgeRecord> PreparedGraph<'a, E> {
    /// Wraps `edges` with default build settings (radix-sort CSR,
    /// unsorted neighbor lists, heuristic grid side).
    pub fn new(edges: &'a EdgeList<E>) -> Self {
        Self {
            edges,
            strategy: Strategy::RadixSort,
            grid_strategy: None,
            sorted: false,
            side: None,
            deltas: None,
            csr: DirCache::default(),
            ccsr: DirCache::default(),
            dcsr: DirCache::default(),
            grid: OnceLock::new(),
            degrees: OnceLock::new(),
            delta_degrees: OnceLock::new(),
        }
    }

    /// Attaches a pending delta log: `Layout::Delta` variants run on
    /// *base + log* (the merged graph) without a CSR rebuild. Without
    /// this, the delta layout runs with an empty overlay and behaves
    /// exactly like `Adjacency`.
    pub fn deltas(mut self, log: &'a DeltaLog<E>) -> Self {
        self.deltas = Some(log);
        self
    }

    /// Sets the CSR construction strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the grid construction strategy (defaults to the CSR
    /// strategy; the conformance matrix pins grids to count sort for
    /// stable within-cell edge order).
    pub fn grid_strategy(mut self, strategy: Strategy) -> Self {
        self.grid_strategy = Some(strategy);
        self
    }

    /// Sorts neighbor lists, making the CSR canonical across
    /// strategies and worker counts.
    pub fn sort_neighbors(mut self, sorted: bool) -> Self {
        self.sorted = sorted;
        self
    }

    /// Sets the grid side (defaults to [`default_grid_side`]).
    pub fn side(mut self, side: usize) -> Self {
        self.side = Some(side);
        self
    }

    /// The underlying edge list.
    pub fn edges(&self) -> &'a EdgeList<E> {
        self.edges
    }

    /// The vertex count.
    pub fn num_vertices(&self) -> usize {
        self.edges.num_vertices()
    }

    /// Out-degrees as `u32` (PageRank's normalization input).
    pub fn degrees(&self) -> &[u32] {
        self.degrees
            .get_or_init(|| self.edges.out_degrees().iter().map(|&d| d as u32).collect())
    }

    /// Builds the one-direction CSR `side` names.
    fn build_csr(&self, side: EdgeDirection) -> AdjacencyList<E> {
        CsrBuilder::new(self.strategy, side)
            .sort_neighbors(self.sorted)
            .build(self.edges)
    }

    fn csr(&self, dir: EdgeDirection) -> (Sides<&Adjacency<E>>, f64) {
        self.csr.view(dir, |side| timed(|| self.build_csr(side)))
    }

    fn ccsr(&self, dir: EdgeDirection) -> (Sides<&CcsrAdjacency<E>>, f64) {
        self.ccsr.view(dir, |side| {
            if self.sorted {
                // The cached CSR is already neighbor-sorted — compress
                // it directly (and share one build between both
                // layouts, which also guarantees identical neighbor
                // order for the conformance oracle).
                let (csr, csr_seconds) = self.csr.side(side, |side| timed(|| self.build_csr(side)));
                let (list, compress_seconds) = timed(|| compress_sorted_csr(csr));
                (list, csr_seconds + compress_seconds)
            } else {
                timed(|| CcsrBuilder::new(self.strategy, side).build(self.edges))
            }
        })
    }

    /// Builds the one-direction delta layout `side` names. The delta
    /// layout owns its base CSR (it outlives this call's borrows), so
    /// it builds one rather than borrowing the cached `csr` slot; base
    /// build plus overlay layering is the layout's preprocessing cost.
    fn build_dcsr(&self, side: EdgeDirection) -> (DeltaList<E>, f64) {
        timed(|| {
            let log = self
                .deltas
                .map_or_else(|| Cow::Owned(DeltaLog::new()), Cow::Borrowed);
            self.build_csr(side)
                .map(|base| DeltaAdjacency::new(base, &log))
        })
    }

    fn dcsr(&self, dir: EdgeDirection) -> (Sides<&DeltaAdjacency<E>>, f64) {
        self.dcsr.view(dir, |side| self.build_dcsr(side))
    }

    /// Out-degrees of the *merged* graph (base + attached delta log),
    /// the normalization input of the delta PageRank variants.
    pub fn delta_degrees(&self) -> &[u32] {
        self.delta_degrees.get_or_init(|| {
            let out = *self.dcsr(EdgeDirection::Out).0.out();
            (0..self.num_vertices() as VertexId)
                .map(|v| out.degree(v) as u32)
                .collect()
        })
    }

    fn grid(&self) -> &(Grid<E>, f64) {
        self.grid.get_or_init(|| {
            let side = self
                .side
                .unwrap_or_else(|| default_grid_side(self.num_vertices()));
            timed(|| {
                GridBuilder::new(self.grid_strategy.unwrap_or(self.strategy))
                    .side(side)
                    .build(self.edges)
            })
        })
    }

    /// Builds (or fetches) the layouts `id` needs and returns their
    /// accumulated build seconds. Zero for the edge-list layout, which
    /// runs straight off the input.
    fn prepare(&self, id: &VariantId) -> f64 {
        match id.layout {
            Layout::EdgeList => 0.0,
            Layout::Adjacency => self.csr(layout_slot(id)).1,
            Layout::Ccsr => self.ccsr(layout_slot(id)).1,
            Layout::Delta => self.dcsr(layout_slot(id)).1,
            Layout::Grid => self.grid().1,
        }
    }
}

impl<E: EdgeRecord> fmt::Debug for PreparedGraph<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedGraph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.edges.num_edges())
            .field("strategy", &self.strategy)
            .field("sorted", &self.sorted)
            .finish()
    }
}

/// The direction a variant's vertex-centric layout is built in: push
/// reads out-edges, pull reads in-edges and the hybrid needs both.
fn layout_slot(id: &VariantId) -> EdgeDirection {
    match id.direction {
        Direction::Push => EdgeDirection::Out,
        Direction::Pull => EdgeDirection::In,
        Direction::PushPull => EdgeDirection::Both,
    }
}

/// The typed result of a variant run.
#[derive(Debug, Clone)]
pub enum VariantOutput {
    /// BFS parents, levels and iteration log.
    Bfs(bfs::BfsResult),
    /// PageRank ranks.
    Pagerank(pagerank::PagerankResult),
    /// SSSP distances.
    Sssp(sssp::SsspResult),
    /// WCC labels.
    Wcc(wcc::WccResult),
    /// SpMV output vector.
    Spmv(spmv::SpmvResult),
}

impl VariantOutput {
    /// Wall-clock seconds the algorithm itself ran.
    pub fn algorithm_seconds(&self) -> f64 {
        match self {
            VariantOutput::Bfs(r) => r.algorithm_seconds(),
            VariantOutput::Pagerank(r) => r.seconds,
            VariantOutput::Sssp(r) => r.algorithm_seconds(),
            VariantOutput::Wcc(r) => r.algorithm_seconds(),
            VariantOutput::Spmv(r) => r.seconds,
        }
    }

    /// The BFS result, when this is one.
    pub fn as_bfs(&self) -> Option<&bfs::BfsResult> {
        match self {
            VariantOutput::Bfs(r) => Some(r),
            _ => None,
        }
    }

    /// The PageRank result, when this is one.
    pub fn as_pagerank(&self) -> Option<&pagerank::PagerankResult> {
        match self {
            VariantOutput::Pagerank(r) => Some(r),
            _ => None,
        }
    }

    /// The SSSP result, when this is one.
    pub fn as_sssp(&self) -> Option<&sssp::SsspResult> {
        match self {
            VariantOutput::Sssp(r) => Some(r),
            _ => None,
        }
    }

    /// The WCC result, when this is one.
    pub fn as_wcc(&self) -> Option<&wcc::WccResult> {
        match self {
            VariantOutput::Wcc(r) => Some(r),
            _ => None,
        }
    }

    /// The SpMV result, when this is one.
    pub fn as_spmv(&self) -> Option<&spmv::SpmvResult> {
        match self {
            VariantOutput::Spmv(r) => Some(r),
            _ => None,
        }
    }
}

/// A completed variant run: the output plus the time attribution the
/// CLI's breakdown and traces report.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// The algorithm's typed result.
    pub output: VariantOutput,
    /// Seconds spent building the layouts this run used (cached
    /// layouts report their original build time).
    pub preprocess_seconds: f64,
    /// Seconds the algorithm itself ran.
    pub algorithm_seconds: f64,
}

/// Resolves and runs one variant: builds (or reuses) the layouts the
/// combination needs, then executes it under the context's pool with
/// the context's instrumentation, attributing `"preprocess"` and
/// `"algorithm"` phases to the context's recorder.
///
/// This is the single algorithm × layout × direction match block in
/// the workspace; everything else dispatches through it.
pub fn run_variant<E: EdgeRecord>(
    id: &VariantId,
    ctx: &ExecCtx<'_>,
    graph: &PreparedGraph<'_, E>,
    params: &RunParams<'_>,
) -> Result<VariantRun, VariantError> {
    if !is_supported(id) {
        return Err(VariantError::Unsupported(*id));
    }
    if id.algo.needs_weights() && !E::WEIGHTED {
        return Err(VariantError::NeedsWeights(id.algo));
    }
    let nv = graph.num_vertices();
    if let (Layout::Grid, Some(side)) = (id.layout, graph.side) {
        let max = max_grid_side(nv);
        if !(1..=max).contains(&side) {
            return Err(VariantError::GridSide { side, max });
        }
    }
    if matches!(id.algo, Algo::Bfs | Algo::Sssp) && params.root as usize >= nv {
        return Err(VariantError::RootOutOfRange {
            root: params.root,
            num_vertices: nv,
        });
    }
    ctx.scoped(|| {
        let preprocess_seconds = if id.layout == Layout::EdgeList {
            0.0
        } else {
            ctx.profile(crate::exec::PHASE_PREPROCESS, || graph.prepare(id))
        };
        let output = ctx.profile(crate::exec::PHASE_ALGORITHM, || {
            execute(id, ctx, graph, params)
        });
        Ok(VariantRun {
            algorithm_seconds: output.algorithm_seconds(),
            preprocess_seconds,
            output,
        })
    })
}

/// The resolver body: names each layout once and hands it to its
/// family's arm set — [`run_indexed`] for the layouts with a per-vertex
/// index (adj, ccsr, delta), [`run_streamed`] for the ones that are
/// scanned whole (edge array, grid). Only reached for supported
/// combinations.
fn execute<E: EdgeRecord>(
    id: &VariantId,
    ctx: &ExecCtx<'_>,
    graph: &PreparedGraph<'_, E>,
    params: &RunParams<'_>,
) -> VariantOutput {
    let edges = graph.edges();
    let slot = layout_slot(id);
    let degrees = || graph.degrees();
    let x = || match params.x {
        Some(x) => Cow::Borrowed(x),
        None => Cow::Owned(vec![1.0f32; graph.num_vertices()]),
    };
    match id.layout {
        Layout::Adjacency => run_indexed(id, &graph.csr(slot).0, degrees, x, params, ctx),
        Layout::Ccsr => run_indexed(id, &graph.ccsr(slot).0, degrees, x, params, ctx),
        Layout::Delta => {
            let degrees = || graph.delta_degrees();
            run_indexed(id, &graph.dcsr(slot).0, degrees, x, params, ctx)
        }
        Layout::EdgeList => run_streamed(id, edges, edges, degrees, x, params, ctx),
        Layout::Grid => {
            let grid = &graph.grid().0;
            match (id.algo, id.direction) {
                // Of the streamed cuts only the grid's columns can
                // pull; of the study's kernels only PageRank does.
                (Algo::Pagerank, Direction::Pull) => VariantOutput::Pagerank(pagerank::pull_impl(
                    grid,
                    degrees(),
                    params.pagerank,
                    ctx,
                )),
                _ => run_streamed(id, grid, &grid.cells(), degrees, x, params, ctx),
            }
        }
    }
}

/// Every algorithm over one indexed layout — the single arm set behind
/// the adj/ccsr/delta triplets. `degrees` yields the out-degrees
/// PageRank normalizes by (of the merged graph for the delta layout)
/// and `x` the SpMV input; both are only computed when consumed.
fn run_indexed<'a, E, L>(
    id: &VariantId,
    layout: &L,
    degrees: impl FnOnce() -> &'a [u32],
    x: impl FnOnce() -> Cow<'a, [f32]>,
    params: &RunParams<'_>,
    c: &ExecCtx<'_>,
) -> VariantOutput
where
    E: EdgeRecord,
    L: VertexLayout<E>,
{
    let (root, cfg) = (params.root, params.pagerank);
    match (id.algo, id.direction) {
        (Algo::Bfs, direction) => {
            VariantOutput::Bfs(bfs::run(layout, root, direction, params.sync, c))
        }
        (Algo::Wcc, _) => VariantOutput::Wcc(wcc::run(layout, c)),
        (Algo::Sssp, _) => {
            VariantOutput::Sssp(sssp::push_impl(layout, root, sssp::derive_delta(layout), c))
        }
        (Algo::Pagerank, Direction::Pull) => {
            VariantOutput::Pagerank(pagerank::pull_impl(layout, degrees(), cfg, c))
        }
        (Algo::Pagerank, _) => {
            VariantOutput::Pagerank(pagerank::push_impl(layout, degrees(), cfg, params.sync, c))
        }
        (Algo::Spmv, Direction::Pull) => VariantOutput::Spmv(spmv::pull_impl(layout, &x(), c)),
        (Algo::Spmv, _) => VariantOutput::Spmv(spmv::push_impl(layout, &x(), c)),
    }
}

/// Every algorithm over one streamed layout, all of them push. A
/// streamed layout may come in two cuts: `owned`, whose push rounds own
/// their destinations where the layout can arrange that (grid columns),
/// and `shared`, the finest cut (grid cells) — taken by the kernels
/// that synchronize anyway: locked PageRank and WCC's union-find
/// hooks. The edge array is its own both.
fn run_streamed<'a, E, S, C>(
    id: &VariantId,
    owned: &S,
    shared: &C,
    degrees: impl FnOnce() -> &'a [u32],
    x: impl FnOnce() -> Cow<'a, [f32]>,
    params: &RunParams<'_>,
    c: &ExecCtx<'_>,
) -> VariantOutput
where
    E: EdgeRecord,
    S: EdgeStream<E>,
    C: EdgeStream<E>,
{
    let (root, cfg, sync) = (params.root, params.pagerank, params.sync);
    match (id.algo, sync) {
        // No locked flavor off the indexed layouts.
        (Algo::Bfs, _) => VariantOutput::Bfs(bfs::run(owned, root, PushOnly, SyncMode::Atomics, c)),
        (Algo::Wcc, _) => VariantOutput::Wcc(wcc::run(shared, c)),
        // A scanning round costs |E| whatever it serves: one bucket.
        (Algo::Sssp, _) => VariantOutput::Sssp(sssp::push_impl(owned, root, f32::INFINITY, c)),
        (Algo::Pagerank, SyncMode::Locks) => {
            VariantOutput::Pagerank(pagerank::push_impl(shared, degrees(), cfg, sync, c))
        }
        (Algo::Pagerank, SyncMode::Atomics) => {
            VariantOutput::Pagerank(pagerank::push_impl(owned, degrees(), cfg, sync, c))
        }
        (Algo::Spmv, _) => VariantOutput::Spmv(spmv::push_impl(owned, &x(), c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Edge, WEdge};

    fn diamond() -> EdgeList<Edge> {
        EdgeList::new(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 3),
                Edge::new(2, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn variant_id_round_trips_through_strings() {
        for id in supported_variants() {
            let parsed: VariantId = id.to_string().parse().unwrap();
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn parse_errors_name_the_component() {
        let err = "bfs/ring/push".parse::<VariantId>().unwrap_err();
        assert!(err.to_string().contains("ring"), "{err}");
        let err = "bfs/adj".parse::<VariantId>().unwrap_err();
        assert!(err.to_string().contains("algo/layout/direction"), "{err}");
    }

    #[test]
    fn unsupported_combination_is_a_typed_error() {
        let id = VariantId::new(Algo::Sssp, Layout::Grid, Direction::Push);
        let graph = EdgeList::new(2, vec![WEdge::new(0, 1, 1.0)]).unwrap();
        let prepared = PreparedGraph::new(&graph);
        let err =
            run_variant(&id, &ExecCtx::new(None), &prepared, &RunParams::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sssp") && msg.contains("grid"), "{msg}");
    }

    #[test]
    fn push_pull_borrows_the_directions_push_and_pull_built() {
        let graph = diamond();
        for layout in [Layout::Adjacency, Layout::Ccsr, Layout::Delta] {
            let prepared = PreparedGraph::new(&graph);
            let seconds = |direction| {
                let id = VariantId::new(Algo::Bfs, layout, direction);
                run_variant(&id, &ExecCtx::new(None), &prepared, &RunParams::default())
                    .unwrap()
                    .preprocess_seconds
            };
            let (push, pull) = (seconds(Direction::Push), seconds(Direction::Pull));
            assert!(push > 0.0 && pull > 0.0, "{layout:?}");
            assert_eq!(seconds(Direction::PushPull), push + pull, "{layout:?}");
        }
    }

    #[test]
    fn wcc_has_one_direction_on_every_layout() {
        // One union-find pass: `push` is the only id per layout, the
        // other two are the typed error, and the table is 37 ids.
        assert_eq!(supported_variants().len(), 37);
        let graph = diamond();
        let prepared = PreparedGraph::new(&graph);
        for layout in Layout::ALL {
            for direction in Direction::ALL {
                let id = VariantId::new(Algo::Wcc, layout, direction);
                let run = run_variant(&id, &ExecCtx::new(None), &prepared, &RunParams::default());
                match direction {
                    Direction::Push => {
                        let label = run.unwrap().output.as_wcc().unwrap().label.clone();
                        assert_eq!(label, [0, 0, 0, 0], "{id}");
                    }
                    _ => assert!(matches!(run, Err(VariantError::Unsupported(e)) if e == id)),
                }
            }
        }
    }

    #[test]
    fn sssp_on_unweighted_graph_is_rejected() {
        let graph = diamond();
        let prepared = PreparedGraph::new(&graph);
        let id = VariantId::new(Algo::Sssp, Layout::Adjacency, Direction::Push);
        let err =
            run_variant(&id, &ExecCtx::new(None), &prepared, &RunParams::default()).unwrap_err();
        assert!(matches!(err, VariantError::NeedsWeights(Algo::Sssp)));
    }

    #[test]
    fn root_out_of_range_is_reported() {
        let graph = diamond();
        let prepared = PreparedGraph::new(&graph);
        let id = VariantId::new(Algo::Bfs, Layout::Adjacency, Direction::Push);
        let err = run_variant(
            &id,
            &ExecCtx::new(None),
            &prepared,
            &RunParams {
                root: 99,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, VariantError::RootOutOfRange { root: 99, .. }));
    }

    #[test]
    fn every_supported_variant_runs_on_a_small_graph() {
        let g = diamond();
        let w = EdgeList::new(
            4,
            vec![
                WEdge::new(0, 1, 1.0),
                WEdge::new(0, 2, 2.0),
                WEdge::new(1, 3, 1.0),
                WEdge::new(2, 3, 1.0),
            ],
        )
        .unwrap();
        let pg = PreparedGraph::new(&g).side(2);
        let pw = PreparedGraph::new(&w).side(2);
        let ctx = ExecCtx::new(None);
        let params = RunParams::default();
        // All 5 x 5 x 3 ids: `run_variant` answers exactly where
        // `is_supported` says so and names the id elsewhere — total,
        // no panic.
        assert_eq!(all_ids().count(), 75);
        for id in all_ids() {
            let run = if id.algo.needs_weights() {
                run_variant(&id, &ctx, &pw, &params)
            } else {
                run_variant(&id, &ctx, &pg, &params)
            };
            if !is_supported(&id) {
                assert!(
                    matches!(run, Err(VariantError::Unsupported(e)) if e == id),
                    "{id}"
                );
                continue;
            }
            let run = run.unwrap_or_else(|e| panic!("{id}: {e}"));
            match id.algo {
                Algo::Bfs => assert_eq!(run.output.as_bfs().unwrap().reachable_count(), 4, "{id}"),
                Algo::Wcc => assert_eq!(run.output.as_wcc().unwrap().component_count(), 1, "{id}"),
                Algo::Sssp => {
                    let dist = &run.output.as_sssp().unwrap().dist;
                    assert_eq!(dist[3], 2.0, "{id}");
                }
                Algo::Pagerank => {
                    assert_eq!(run.output.as_pagerank().unwrap().ranks.len(), 4, "{id}")
                }
                Algo::Spmv => assert_eq!(run.output.as_spmv().unwrap().y.len(), 4, "{id}"),
            }
        }
    }

    #[test]
    fn a_grid_side_out_of_range_is_a_typed_error() {
        let g = diamond();
        let id = VariantId::new(Algo::Bfs, Layout::Grid, Direction::Push);
        let run = |pg: PreparedGraph<'_, Edge>| {
            run_variant(&id, &ExecCtx::new(None), &pg, &RunParams::default())
        };
        for side in [0, 5, 200_000] {
            let err = run(PreparedGraph::new(&g).side(side)).unwrap_err();
            assert!(
                matches!(err, VariantError::GridSide { side: s, max: 4 } if s == side),
                "{err}"
            );
        }
        for side in 1..=4 {
            assert!(
                run(PreparedGraph::new(&g).side(side)).is_ok(),
                "side {side}"
            );
        }
        // The default is a side a caller may ask for, whatever the graph.
        for nv in [0, 1, 4, 1 << 20, 1 << 30] {
            assert!((1..=max_grid_side(nv)).contains(&default_grid_side(nv)));
        }
        // The paper's 256x256 at RMAT-26, scaled, within [8, 256].
        assert_eq!(default_grid_side(1 << 16), 8);
        assert_eq!(default_grid_side(1 << 26), 256);
        assert_eq!(default_grid_side(1 << 30), 256);
        assert!(run(PreparedGraph::new(&g)).is_ok());
        // A side only matters where a grid is built.
        let id = VariantId::new(Algo::Bfs, Layout::Adjacency, Direction::Push);
        let run = run_variant(
            &id,
            &ExecCtx::new(None),
            &PreparedGraph::new(&g).side(0),
            &RunParams::default(),
        );
        assert!(run.is_ok());
    }

    #[test]
    fn ccsr_variants_match_adjacency_results() {
        let g = diamond();
        let w = EdgeList::new(
            4,
            vec![
                WEdge::new(0, 1, 1.0),
                WEdge::new(0, 2, 2.0),
                WEdge::new(1, 3, 1.0),
                WEdge::new(2, 3, 1.0),
            ],
        )
        .unwrap();
        let pg = PreparedGraph::new(&g).sort_neighbors(true);
        let pw = PreparedGraph::new(&w).sort_neighbors(true);
        let ctx = ExecCtx::new(None);
        let params = RunParams::default();
        for algo in [Algo::Bfs, Algo::Wcc, Algo::Pagerank, Algo::Spmv] {
            for direction in Direction::ALL {
                let adj_id = VariantId::new(algo, Layout::Adjacency, direction);
                let ccsr_id = VariantId::new(algo, Layout::Ccsr, direction);
                assert_eq!(is_supported(&adj_id), is_supported(&ccsr_id));
                if !is_supported(&adj_id) {
                    continue;
                }
                let (a, b) = if algo.needs_weights() {
                    (
                        run_variant(&adj_id, &ctx, &pw, &params).unwrap(),
                        run_variant(&ccsr_id, &ctx, &pw, &params).unwrap(),
                    )
                } else {
                    (
                        run_variant(&adj_id, &ctx, &pg, &params).unwrap(),
                        run_variant(&ccsr_id, &ctx, &pg, &params).unwrap(),
                    )
                };
                match (a.output, b.output) {
                    (VariantOutput::Bfs(x), VariantOutput::Bfs(y)) => {
                        assert_eq!(x.level, y.level, "{ccsr_id}")
                    }
                    (VariantOutput::Wcc(x), VariantOutput::Wcc(y)) => {
                        assert_eq!(x.label, y.label, "{ccsr_id}")
                    }
                    (VariantOutput::Pagerank(x), VariantOutput::Pagerank(y)) => {
                        assert_eq!(x.ranks, y.ranks, "{ccsr_id}")
                    }
                    (VariantOutput::Spmv(x), VariantOutput::Spmv(y)) => {
                        assert_eq!(x.y, y.y, "{ccsr_id}")
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn prepared_graph_caches_layouts() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        let out = |dir| *pg.csr(dir).0.out() as *const Adjacency<Edge>;
        let inc = |dir| *pg.csr(dir).0.incoming() as *const Adjacency<Edge>;
        assert_eq!(out(EdgeDirection::Out), out(EdgeDirection::Out));
        // Each direction is its own build, shared by repeat calls and
        // borrowed by the two-direction view.
        assert_eq!(inc(EdgeDirection::In), inc(EdgeDirection::In));
        assert_ne!(out(EdgeDirection::Out), inc(EdgeDirection::In));
        assert_eq!(out(EdgeDirection::Both), out(EdgeDirection::Out));
        assert_eq!(inc(EdgeDirection::Both), inc(EdgeDirection::In));
        // Both PageRank grid variants run on one grid: each reports the
        // build seconds of the same cached build, to the bit.
        let ctx = ExecCtx::new(None);
        let run =
            |id: &str| run_variant(&id.parse().unwrap(), &ctx, &pg, &RunParams::default()).unwrap();
        let (pull, push) = (run("pagerank/grid/pull"), run("pagerank/grid/push"));
        assert_eq!(pull.preprocess_seconds, pg.grid().1);
        assert_eq!(push.preprocess_seconds, pull.preprocess_seconds);
        assert_eq!(
            pull.output.as_pagerank().unwrap().ranks,
            push.output.as_pagerank().unwrap().ranks
        );
    }

    #[test]
    fn push_bfs_records_every_iteration_under_both_sync_modes() {
        // Both push rules must run on the caller's context: a rule on
        // a private one answers correctly but records nothing.
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        for layout in [Layout::Adjacency, Layout::Ccsr, Layout::Delta] {
            for sync in [SyncMode::Atomics, SyncMode::Locks] {
                let recorder = crate::telemetry::TraceRecorder::new();
                let run = run_variant(
                    &VariantId::new(Algo::Bfs, layout, Direction::Push),
                    &ExecCtx::new(None).recorder(&recorder),
                    &pg,
                    &RunParams {
                        sync,
                        ..Default::default()
                    },
                )
                .unwrap();
                let result = run.output.as_bfs().unwrap();
                assert_eq!(result.level, [0, 1, 1, 2], "{layout}/{sync}");
                assert_eq!(result.iterations.len(), 3, "{layout}/{sync}");
                assert_eq!(
                    recorder.iterations().len(),
                    result.iterations.len(),
                    "{layout}/{sync}"
                );
                assert!(recorder.counters()[crate::engine::EDGES_EXAMINED] > 0.0);
            }
        }
    }

    #[test]
    fn sync_matters_only_for_push_variants_with_two_impls() {
        assert!(sync_matters(&"bfs/adj/push".parse().unwrap()));
        assert!(sync_matters(&"pagerank/grid/push".parse().unwrap()));
        assert!(!sync_matters(&"bfs/adj/pull".parse().unwrap()));
        assert!(!sync_matters(&"spmv/adj/push".parse().unwrap()));
    }

    #[test]
    fn determinism_classification_matches_design_doc() {
        let exact = |s: &str, sync| cross_thread_deterministic(&s.parse().unwrap(), sync);
        assert!(exact("bfs/adj/push", SyncMode::Atomics));
        assert!(exact("sssp/adj/push", SyncMode::Atomics));
        assert!(exact("pagerank/adj/pull", SyncMode::Atomics));
        assert!(exact("pagerank/grid/push", SyncMode::Atomics));
        assert!(!exact("pagerank/grid/push", SyncMode::Locks));
        assert!(!exact("pagerank/adj/push", SyncMode::Atomics));
        assert!(!exact("spmv/adj/push", SyncMode::Atomics));
        assert!(exact("spmv/grid/push", SyncMode::Atomics));
        assert!(exact("spmv/adj/pull", SyncMode::Atomics));
    }
}
