//! The mutable delta-log layout (DESIGN.md §16).
//!
//! Every other layout in this module is frozen at build time; this one
//! layers an append-only log of edge insertions and deletions over a
//! frozen CSR so a graph can keep serving reads while it absorbs
//! updates:
//!
//! * [`DeltaBatch`] — one batch of [`DeltaOp`]s, parsed from an NDJSON
//!   delta stream with typed [`DeltaError`]s (never a panic).
//! * [`DeltaLog`] — the append-only op log plus the merge rule that
//!   folds it into an [`EdgeList`].
//! * [`DeltaAdjacency`] / [`DeltaList`] — a [`NeighborAccess`] /
//!   [`VertexLayout`](super::VertexLayout) view of *base CSR + log
//!   overlay*, so every vertex-centric kernel runs on the mutated graph
//!   without a CSR rebuild.
//! * [`EpochCell`] — the epoch-style publication point: a compactor
//!   swaps in a fresh snapshot while in-flight readers keep the `Arc`
//!   they loaded (they are pinned to the old epoch, never blocked).
//! * [`DeltaGraph`] — base snapshot + pending log + compaction.
//!
//! Delete semantics are multiset-wide: `delete src dst` removes every
//! occurrence of that edge present at that point in the log (base
//! copies and earlier inserted copies alike); a later insert re-adds a
//! single new copy. This keeps merge order-sensitive in exactly the way
//! an append-only log is, and makes `merge(base, log)` reproducible by
//! any replayer.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::layout::csr::{Adjacency, AdjacencyList};
use crate::layout::{NeighborAccess, Resident, Sides, SPAN_EDGES};
use crate::telemetry::json;
use crate::types::{EdgeList, EdgeRecord, VertexId};

/// One edge mutation in a delta stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp<E> {
    /// Append one copy of this edge.
    Insert(E),
    /// Remove every current copy of `src → dst`.
    Delete {
        /// Source endpoint of the removed edge.
        src: VertexId,
        /// Destination endpoint of the removed edge.
        dst: VertexId,
    },
}

impl<E: EdgeRecord> DeltaOp<E> {
    /// Reads the op of one parsed delta line, `line_no` naming it in
    /// errors. The line must be one JSON object; its fields are taken
    /// from the top level, the first occurrence of a key winning.
    /// `weight` is optional and ignored by unweighted edge types.
    pub fn from_json(value: &json::Value, line_no: usize) -> Result<Self, DeltaError> {
        if value.as_object().is_none() {
            return Err(DeltaError::NotJson { line: line_no });
        }
        let bad = |field| DeltaError::BadField {
            line: line_no,
            field,
        };
        let field = |field: &'static str| {
            value.get(field).ok_or(DeltaError::MissingField {
                line: line_no,
                field,
            })
        };
        let vertex = |key| match field(key)?.as_number() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= f64::from(VertexId::MAX) => {
                Ok(n as VertexId)
            }
            _ => Err(bad(key)),
        };
        let op = field("op")?.as_str().ok_or(bad("op"))?;
        let (src, dst) = (vertex("src")?, vertex("dst")?);
        match op {
            "insert" | "add" => {
                let weight = match value.get("weight").map(|w| w.as_number().map(|w| w as f32)) {
                    None => 1.0,
                    Some(Some(w)) if w.is_finite() => w,
                    Some(_) => return Err(bad("weight")),
                };
                Ok(DeltaOp::Insert(E::new(src, dst, weight)))
            }
            "delete" | "remove" => Ok(DeltaOp::Delete { src, dst }),
            other => Err(DeltaError::UnknownOp {
                line: line_no,
                op: other.chars().take(32).collect(),
            }),
        }
    }

    /// The `(src, dst)` endpoints this op touches.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match self {
            DeltaOp::Insert(e) => (e.src(), e.dst()),
            DeltaOp::Delete { src, dst } => (*src, *dst),
        }
    }
}

/// A typed delta-stream error. Malformed NDJSON input yields one of
/// these; it never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The line is not one JSON object (malformed, another JSON
    /// value, or trailing data after the object).
    NotJson {
        /// 1-based line number in the stream.
        line: usize,
    },
    /// A required field is absent.
    MissingField {
        /// 1-based line number in the stream.
        line: usize,
        /// The missing field.
        field: &'static str,
    },
    /// A field is present but not a representable value (negative,
    /// fractional or overflowing vertex ids, a non-finite weight) or
    /// not of its JSON type (a quoted number, a numeric op).
    BadField {
        /// 1-based line number in the stream.
        line: usize,
        /// The offending field.
        field: &'static str,
    },
    /// The `op` field names an unknown operation.
    UnknownOp {
        /// 1-based line number in the stream.
        line: usize,
        /// The unrecognized op string (truncated).
        op: String,
    },
    /// An endpoint does not exist in the target graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// Vertices in the target graph.
        num_vertices: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::NotJson { line } => write!(f, "line {line}: not a JSON object"),
            DeltaError::MissingField { line, field } => {
                write!(f, "line {line}: missing field \"{field}\"")
            }
            DeltaError::BadField { line, field } => {
                write!(f, "line {line}: bad value for field \"{field}\"")
            }
            DeltaError::UnknownOp { line, op } => {
                write!(
                    f,
                    "line {line}: unknown op \"{op}\" (expected insert|delete)"
                )
            }
            DeltaError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// One batch of delta ops, in stream order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch<E> {
    /// The ops, in the order they were issued.
    pub ops: Vec<DeltaOp<E>>,
}

impl<E: EdgeRecord> DeltaBatch<E> {
    /// An empty batch.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether any op is a deletion.
    pub fn has_deletes(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, DeltaOp::Delete { .. }))
    }

    /// Parses one NDJSON delta line, e.g.
    /// `{"op":"insert","src":3,"dst":9,"weight":0.5}` or
    /// `{"op":"delete","src":3,"dst":9}`: [`json::parse`] — the reader
    /// the daemon routes request lines with — then
    /// [`DeltaOp::from_json`].
    pub fn parse_line(line: &str, line_no: usize) -> Result<DeltaOp<E>, DeltaError> {
        let value = json::parse(line).map_err(|_| DeltaError::NotJson { line: line_no })?;
        DeltaOp::from_json(&value, line_no)
    }

    /// Parses a whole NDJSON delta stream; blank lines are skipped.
    pub fn parse_ndjson(text: &str) -> Result<Self, DeltaError> {
        let mut ops = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            ops.push(Self::parse_line(line, i + 1)?);
        }
        Ok(Self { ops })
    }

    /// Checks every endpoint against `num_vertices`.
    pub fn validate(&self, num_vertices: usize) -> Result<(), DeltaError> {
        for op in &self.ops {
            let (s, d) = op.endpoints();
            for v in [s, d] {
                if v as usize >= num_vertices {
                    return Err(DeltaError::VertexOutOfRange {
                        vertex: v,
                        num_vertices,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The append-only op log layered over a frozen base snapshot.
#[derive(Debug, Clone)]
pub struct DeltaLog<E> {
    ops: Vec<DeltaOp<E>>,
}

/// The empty log, for any edge type (a derive would ask `E: Default`).
impl<E> Default for DeltaLog<E> {
    fn default() -> Self {
        Self { ops: Vec::new() }
    }
}

impl<E: EdgeRecord> DeltaLog<E> {
    /// An empty log.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// The ops, in append order.
    pub fn ops(&self) -> &[DeltaOp<E>] {
        &self.ops
    }

    /// Number of logged ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends one op.
    pub fn push(&mut self, op: DeltaOp<E>) {
        self.ops.push(op);
    }

    /// Appends a whole batch.
    pub fn append(&mut self, batch: &DeltaBatch<E>) {
        self.ops.extend_from_slice(&batch.ops);
    }

    /// The log as one batch (for replay).
    pub fn as_batch(&self) -> DeltaBatch<E> {
        DeltaBatch {
            ops: self.ops.clone(),
        }
    }

    /// The log's net effect: the inserts no later delete names, in log
    /// order, and every deleted `(src, dst)` key. One reverse pass: at
    /// an insert, `deleted` holds exactly the keys deleted after it.
    fn resolve(&self) -> (Vec<E>, HashSet<(VertexId, VertexId)>) {
        let mut deleted = HashSet::new();
        let mut inserts = Vec::new();
        for op in self.ops.iter().rev() {
            match op {
                DeltaOp::Insert(e) => {
                    if !deleted.contains(&(e.src(), e.dst())) {
                        inserts.push(*e);
                    }
                }
                DeltaOp::Delete { src, dst } => {
                    deleted.insert((*src, *dst));
                }
            }
        }
        inserts.reverse();
        (inserts, deleted)
    }

    /// Folds the log into `base`, producing the merged edge list: base
    /// edges surviving every delete, then the surviving inserts in log
    /// order. Endpoints must already be validated against the base.
    pub fn merge_into(&self, base: &EdgeList<E>) -> EdgeList<E> {
        let (inserts, deleted) = self.resolve();
        // One bit per source with a delete: most base edges skip the
        // set probe.
        let mut sources = vec![0u64; base.num_vertices().div_ceil(64)];
        for &(src, _) in &deleted {
            sources[src as usize / 64] |= 1 << (src % 64);
        }
        let mut merged = Vec::with_capacity(base.num_edges() + inserts.len());
        merged.extend(base.edges().iter().filter(|e| {
            let src = e.src();
            (sources[src as usize / 64] >> (src % 64)) & 1 == 0
                || !deleted.contains(&(src, e.dst()))
        }));
        merged.extend_from_slice(&inserts);
        EdgeList::new(base.num_vertices(), merged)
            .expect("merged endpoints were validated against the base vertex range")
    }
}

/// Patch index of an owner the log leaves as it is in the base.
const UNPATCHED: u32 = u32::MAX;

/// What the log changes about one owner's neighbor list.
#[derive(Debug, Clone)]
struct Patch<E> {
    /// Ascending positions in the owner's base neighbor list whose
    /// edge a delete removed.
    skips: Vec<u32>,
    /// Inserted edges no later delete removed, in log order.
    inserts: Vec<E>,
}

/// One direction of the delta layout: a frozen base [`Adjacency`] plus
/// the log's per-owner patches (deleted base positions, surviving
/// inserts), resolved once when the view is built. Implements
/// [`NeighborAccess`] without hashing: a read is one dense patch-index
/// lookup, then base CSR slices between deleted positions (no copying)
/// and the inserts. So every vertex-centric kernel runs on the mutated
/// graph without rebuilding the CSR.
#[derive(Debug, Clone)]
pub struct DeltaAdjacency<E> {
    base: Adjacency<E>,
    /// Per vertex, its index into `patches` or [`UNPATCHED`]. Empty
    /// when the log patches no owner, so an empty log reads the base
    /// CSR alone.
    patch_of: Vec<u32>,
    patches: Vec<Patch<E>>,
    num_edges: usize,
}

impl<E: EdgeRecord> DeltaAdjacency<E> {
    /// Layers `log` over `base`. Op endpoints must be in range.
    pub fn new(base: Adjacency<E>, log: &DeltaLog<E>) -> Self {
        let by_dst = base.is_by_dst();
        // (owner, other endpoint): the owner is src for out-adjacency,
        // dst for in-adjacency, whose records keep their orientation.
        let owner_other =
            move |src: VertexId, dst: VertexId| if by_dst { (dst, src) } else { (src, dst) };
        let (inserts, deleted) = log.resolve();
        let mut view = Self {
            base,
            patch_of: Vec::new(),
            patches: Vec::new(),
            num_edges: 0,
        };
        for e in inserts {
            view.patch(owner_other(e.src(), e.dst()).0).inserts.push(e);
        }
        let mut tombstones: Vec<(VertexId, VertexId)> = deleted
            .into_iter()
            .map(|(s, d)| owner_other(s, d))
            .collect();
        tombstones.sort_unstable();
        for owner_tombs in tombstones.chunk_by(|a, b| a.0 == b.0) {
            let owner = owner_tombs[0].0;
            let skips: Vec<u32> = (0u32..)
                .zip(view.base.neighbors(owner))
                .filter(|(_, e)| {
                    let other = owner_other(e.src(), e.dst()).1;
                    owner_tombs.binary_search_by_key(&other, |t| t.1).is_ok()
                })
                .map(|(i, _)| i)
                .collect();
            if !skips.is_empty() {
                view.patch(owner).skips = skips;
            }
        }
        let (skipped, added) = view
            .patches
            .iter()
            .fold((0, 0), |(s, a), p| (s + p.skips.len(), a + p.inserts.len()));
        view.num_edges = view.base.num_edges() - skipped + added;
        view
    }

    /// `owner`'s patch, created empty on first use.
    fn patch(&mut self, owner: VertexId) -> &mut Patch<E> {
        if self.patch_of.is_empty() {
            self.patch_of = vec![UNPATCHED; self.base.num_vertices()];
        }
        let slot = &mut self.patch_of[owner as usize];
        if *slot == UNPATCHED {
            *slot = self.patches.len() as u32;
            self.patches.push(Patch {
                skips: Vec::new(),
                inserts: Vec::new(),
            });
        }
        &mut self.patches[*slot as usize]
    }

    #[inline]
    fn patch_at(&self, v: VertexId) -> Option<&Patch<E>> {
        match self.patch_of.get(v as usize) {
            Some(&p) if p != UNPATCHED => Some(&self.patches[p as usize]),
            _ => None,
        }
    }

    /// Whether neighbor records are keyed by destination (in-adjacency).
    pub fn is_by_dst(&self) -> bool {
        self.base.is_by_dst()
    }

    /// The frozen base this overlay wraps.
    pub fn base(&self) -> &Adjacency<E> {
        &self.base
    }

    /// Approximate resident bytes of base plus overlay.
    pub fn resident_bytes(&self) -> u64 {
        let patches: usize = self
            .patches
            .iter()
            .map(|p| {
                std::mem::size_of::<Patch<E>>()
                    + p.skips.len() * std::mem::size_of::<u32>()
                    + p.inserts.len() * std::mem::size_of::<E>()
            })
            .sum();
        let index = self.patch_of.len() * std::mem::size_of::<u32>();
        self.base.resident_bytes() + (index + patches) as u64
    }
}

/// Hands `edges` to `f` in spans of at most [`SPAN_EDGES`]; `false`
/// once `f` consumed less than a whole span (early termination).
#[inline]
fn spans<E>(edges: &[E], f: &mut impl FnMut(&[E]) -> usize) -> bool {
    edges.chunks(SPAN_EDGES).all(|span| f(span) >= span.len())
}

impl<E: EdgeRecord> NeighborAccess<E> for DeltaAdjacency<E> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let base = self.base.degree(v);
        match self.patch_at(v) {
            None => base,
            Some(p) => base - p.skips.len() + p.inserts.len(),
        }
    }

    #[inline]
    fn for_each_span<F: FnMut(&[E]) -> usize>(&self, v: VertexId, mut f: F) {
        let base = self.base.neighbors(v);
        let Some(patch) = self.patch_at(v) else {
            spans(base, &mut f);
            return;
        };
        // The base slices between deleted positions, then the inserts.
        let mut from = 0;
        for &skip in &patch.skips {
            if !spans(&base[from..skip as usize], &mut f) {
                return;
            }
            from = skip as usize + 1;
        }
        if spans(&base[from..], &mut f) {
            spans(&patch.inserts, &mut f);
        }
    }
}

impl<E: EdgeRecord> Resident for DeltaAdjacency<E> {
    fn resident_bytes(&self) -> u64 {
        DeltaAdjacency::resident_bytes(self)
    }
}

/// The two-direction delta layout: [`DeltaAdjacency`] per stored
/// direction, pluggable everywhere a [`VertexLayout`](super::VertexLayout)
/// is accepted.
pub type DeltaList<E> = Sides<DeltaAdjacency<E>>;

impl<E: EdgeRecord> DeltaList<E> {
    /// Wraps pre-built base directions with the same log overlay.
    ///
    /// # Panics
    ///
    /// Panics if both directions are absent or their vertex counts
    /// disagree.
    pub fn new(out: Option<Adjacency<E>>, inc: Option<Adjacency<E>>, log: &DeltaLog<E>) -> Self {
        AdjacencyList::new(out, inc).map(|base| DeltaAdjacency::new(base, log))
    }
}

/// The epoch-style publication cell (the arc-swap pattern, without the
/// dependency): writers [`publish`](Self::publish) a fresh value and
/// bump the epoch; readers [`load`](Self::load) the current `Arc` in a
/// nanosecond-scale critical section and then work on it for as long
/// as they like, pinned to the epoch they loaded — a compactor
/// publishing a new snapshot never blocks or invalidates them.
#[derive(Debug)]
pub struct EpochCell<T> {
    current: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// A cell at epoch 0 holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            current: Mutex::new(Arc::new(value)),
            epoch: AtomicU64::new(0),
        }
    }

    /// The current value; the returned `Arc` stays valid (pinned to
    /// its epoch) across any number of subsequent publishes.
    pub fn load(&self) -> Arc<T> {
        self.current
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The current value and the epoch it was published at, read
    /// atomically together.
    pub fn load_with_epoch(&self) -> (Arc<T>, u64) {
        let guard = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        (guard.clone(), self.epoch.load(Ordering::Acquire))
    }

    /// The current epoch (publishes so far).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes `value` as the new current; returns the new epoch.
    pub fn publish(&self, value: T) -> u64 {
        self.publish_arc(Arc::new(value))
    }

    /// Publishes an already-shared value; returns the new epoch.
    pub fn publish_arc(&self, value: Arc<T>) -> u64 {
        let mut guard = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = value;
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// A published graph snapshot: the merged edge list as of `epoch`.
#[derive(Debug)]
pub struct GraphSnapshot<E: EdgeRecord> {
    /// The epoch this snapshot was published at (0 = the base build).
    pub epoch: u64,
    /// The merged edge list.
    pub edges: EdgeList<E>,
}

/// Statistics of one compaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactStats {
    /// The epoch the merged snapshot was published at.
    pub epoch: u64,
    /// Log ops folded into the snapshot.
    pub merged_ops: usize,
    /// Edges before the merge.
    pub edges_before: usize,
    /// Edges after the merge.
    pub edges_after: usize,
    /// Wall-clock seconds spent merging and publishing.
    pub seconds: f64,
}

/// A mutable graph: a frozen, epoch-published base snapshot plus the
/// pending delta log. Readers take [`snapshot`](Self::snapshot) (never
/// blocked by writers); updaters [`apply`](Self::apply) batches;
/// [`compact`](Self::compact) folds the pending log into a fresh
/// snapshot and flips the epoch pointer.
#[derive(Debug)]
pub struct DeltaGraph<E: EdgeRecord> {
    snapshot: EpochCell<GraphSnapshot<E>>,
    log: Mutex<DeltaLog<E>>,
}

impl<E: EdgeRecord> DeltaGraph<E> {
    /// Starts from `base` at epoch 0 with an empty log.
    pub fn new(base: EdgeList<E>) -> Self {
        Self {
            snapshot: EpochCell::new(GraphSnapshot {
                epoch: 0,
                edges: base,
            }),
            log: Mutex::new(DeltaLog::new()),
        }
    }

    /// Number of vertices (fixed across updates).
    pub fn num_vertices(&self) -> usize {
        self.snapshot().edges.num_vertices()
    }

    /// The current published snapshot, pinned to its epoch.
    pub fn snapshot(&self) -> Arc<GraphSnapshot<E>> {
        self.snapshot.load()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Pending (not yet compacted) ops.
    pub fn pending_ops(&self) -> usize {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Pending ops as a fraction of the snapshot's edge count (the
    /// incremental-vs-recompute fallback signal).
    pub fn delta_fraction(&self) -> f64 {
        self.pending_ops() as f64 / self.snapshot().edges.num_edges().max(1) as f64
    }

    /// Validates and appends one batch to the pending log; returns the
    /// number of appended ops. On error nothing is appended.
    pub fn apply(&self, batch: &DeltaBatch<E>) -> Result<usize, DeltaError> {
        batch.validate(self.num_vertices())?;
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        log.append(batch);
        Ok(batch.len())
    }

    /// The pending log, cloned (oracle / layout-construction helper).
    pub fn pending_log(&self) -> DeltaLog<E> {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The merged edge list *as of now* (snapshot + pending log),
    /// without publishing anything.
    pub fn merged(&self) -> EdgeList<E> {
        let log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        log.merge_into(&self.snapshot().edges)
    }

    /// Folds the pending log into a fresh snapshot, publishes it at
    /// `epoch + 1`, and clears the log. Readers holding the old
    /// snapshot are unaffected. A no-op (same epoch reported) when the
    /// log is empty.
    pub fn compact(&self) -> CompactStats {
        let start = std::time::Instant::now();
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        let old = self.snapshot.load();
        if log.is_empty() {
            return CompactStats {
                epoch: old.epoch,
                merged_ops: 0,
                edges_before: old.edges.num_edges(),
                edges_after: old.edges.num_edges(),
                seconds: start.elapsed().as_secs_f64(),
            };
        }
        let merged = log.merge_into(&old.edges);
        let stats = CompactStats {
            epoch: old.epoch + 1,
            merged_ops: log.len(),
            edges_before: old.edges.num_edges(),
            edges_after: merged.num_edges(),
            seconds: 0.0,
        };
        self.snapshot.publish(GraphSnapshot {
            epoch: old.epoch + 1,
            edges: merged,
        });
        *log = DeltaLog::new();
        CompactStats {
            seconds: start.elapsed().as_secs_f64(),
            ..stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EdgeDirection, VertexLayout};
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::types::{Edge, WEdge};

    fn base_graph() -> EdgeList<Edge> {
        EdgeList::new(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(0, 1), // duplicate
            ],
        )
        .unwrap()
    }

    fn delta_list(graph: &EdgeList<Edge>, log: &DeltaLog<Edge>) -> DeltaList<Edge> {
        let (out, incoming) = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(graph)
            .into_parts();
        DeltaList::new(out, incoming, log)
    }

    fn sorted_neighbors(d: &DeltaAdjacency<Edge>, v: VertexId) -> Vec<(u32, u32)> {
        let mut n = Vec::new();
        d.for_each_span(v, |span| {
            n.extend(span.iter().map(|e| (e.src, e.dst)));
            span.len()
        });
        n.sort_unstable();
        n
    }

    #[test]
    fn insert_and_delete_overlay_matches_merge() {
        let base = base_graph();
        let mut log = DeltaLog::new();
        log.push(DeltaOp::Insert(Edge::new(3, 4)));
        log.push(DeltaOp::Delete { src: 0, dst: 1 }); // kills both copies
        log.push(DeltaOp::Insert(Edge::new(0, 1))); // one copy back
        let list = delta_list(&base, &log);
        let merged = log.merge_into(&base);

        assert_eq!(merged.num_edges(), 5); // 5 - 2 + 2
        assert_eq!(list.num_edges(), merged.num_edges());
        assert_eq!(sorted_neighbors(list.out(), 0), vec![(0, 1), (0, 2)]);
        assert_eq!(sorted_neighbors(list.out(), 3), vec![(3, 4)]);
        assert_eq!(sorted_neighbors(list.incoming(), 1), vec![(0, 1)]);
        assert_eq!(list.out().degree(0), 2);
        assert_eq!(list.incoming().degree(4), 1);
    }

    #[test]
    fn overlay_neighbors_equal_merged_csr_everywhere() {
        let base = base_graph();
        let mut log = DeltaLog::new();
        for op in [
            DeltaOp::Insert(Edge::new(4, 0)),
            DeltaOp::Insert(Edge::new(2, 2)), // self loop
            DeltaOp::Delete { src: 2, dst: 3 },
            DeltaOp::Insert(Edge::new(1, 3)),
            DeltaOp::Delete { src: 4, dst: 0 },
        ] {
            log.push(op);
        }
        let list = delta_list(&base, &log);
        let merged = log.merge_into(&base);
        let merged_csr = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(&merged);
        for v in 0..base.num_vertices() as u32 {
            let mut want: Vec<(u32, u32)> = merged_csr
                .out()
                .neighbors(v)
                .iter()
                .map(|e| (e.src, e.dst))
                .collect();
            want.sort_unstable();
            assert_eq!(sorted_neighbors(list.out(), v), want, "out {v}");
            let mut want_in: Vec<(u32, u32)> = merged_csr
                .incoming()
                .neighbors(v)
                .iter()
                .map(|e| (e.src, e.dst))
                .collect();
            want_in.sort_unstable();
            assert_eq!(sorted_neighbors(list.incoming(), v), want_in, "in {v}");
        }
    }

    #[test]
    fn span_early_termination_still_works() {
        let nv = 3usize;
        let edges: Vec<Edge> = (0..200).map(|i| Edge::new(0, (i % 2) + 1)).collect();
        let base = EdgeList::new(nv, edges).unwrap();
        let mut log = DeltaLog::new();
        log.push(DeltaOp::Delete { src: 0, dst: 1 });
        let list = delta_list(&base, &log);
        let mut spans = 0;
        list.out().for_each_span(0, |span| {
            assert!(span.len() <= SPAN_EDGES);
            spans += 1;
            0 // stop immediately
        });
        assert_eq!(spans, 1);
        assert_eq!(list.out().degree(0), 100);
    }

    /// The spans `for_each_span` hands out for `v`, as neighbor ids
    /// (the non-owner endpoint), consuming each whole.
    fn span_ids(d: &DeltaAdjacency<Edge>, v: VertexId) -> Vec<Vec<u32>> {
        let mut spans = Vec::new();
        d.for_each_span(v, |span| {
            spans.push(span.iter().map(|e| d.other(e)).collect());
            span.len()
        });
        spans
    }

    impl DeltaAdjacency<Edge> {
        fn other(&self, e: &Edge) -> u32 {
            if self.is_by_dst() {
                e.src
            } else {
                e.dst
            }
        }
    }

    fn log_of(ops: impl IntoIterator<Item = DeltaOp<Edge>>) -> DeltaLog<Edge> {
        let mut log = DeltaLog::new();
        for op in ops {
            log.push(op);
        }
        log
    }

    #[test]
    fn tombstones_at_the_ends_in_runs_and_on_copies_skip_exactly_their_positions() {
        // Vertex 0: 1..=10 with 5 twice; vertex 1: two base edges.
        let mut edges: Vec<Edge> = (1..=10).map(|d| Edge::new(0, d)).collect();
        edges.push(Edge::new(0, 5));
        edges.extend([Edge::new(1, 2), Edge::new(1, 3)]);
        let base = EdgeList::new(11, edges).unwrap();
        let log = log_of([
            DeltaOp::Delete { src: 0, dst: 1 },  // position 0
            DeltaOp::Delete { src: 0, dst: 10 }, // the last position
            DeltaOp::Insert(Edge::new(0, 4)),    // dies with the next delete
            DeltaOp::Delete { src: 0, dst: 4 },  // a run with both copies of 5
            DeltaOp::Delete { src: 0, dst: 5 },
            DeltaOp::Insert(Edge::new(0, 1)), // re-inserted after its delete
            DeltaOp::Delete { src: 1, dst: 2 }, // every base edge of vertex 1
            DeltaOp::Delete { src: 1, dst: 3 },
        ]);
        let list = delta_list(&base, &log);
        let out = list.out();
        assert_eq!(
            span_ids(out, 0),
            vec![vec![2, 3], vec![6, 7, 8, 9], vec![1]]
        );
        assert_eq!(out.degree(0), 7);
        assert!(span_ids(out, 1).is_empty(), "every base edge deleted");
        assert_eq!(out.degree(1), 0);
        assert_eq!(list.num_edges(), log.merge_into(&base).num_edges());
        // The in-direction resolves the same ops by destination.
        assert!(
            span_ids(list.incoming(), 5).is_empty(),
            "both copies of 0→5"
        );
        assert_eq!(span_ids(list.incoming(), 3), vec![vec![0]]);
        assert_eq!(span_ids(list.incoming(), 1), vec![vec![0]]);
    }

    #[test]
    fn spans_split_at_skips_and_stop_where_the_caller_stops() {
        // 130 base neighbors of vertex 0; deleting 0→64 ends the first
        // full span exactly at the skip.
        let edges: Vec<Edge> = (1..=130).map(|d| Edge::new(0, d)).collect();
        let base = EdgeList::new(131, edges).unwrap();
        let log = log_of([
            DeltaOp::Delete { src: 0, dst: 65 },
            DeltaOp::Insert(Edge::new(0, 7)),
        ]);
        let list = delta_list(&base, &log);
        let lens: Vec<usize> = span_ids(list.out(), 0).iter().map(Vec::len).collect();
        assert_eq!(lens, vec![64, 64, 1, 1]);
        for stop_at in 0..4 {
            let mut calls = 0;
            list.out().for_each_span(0, |span| {
                calls += 1;
                if calls > stop_at {
                    span.len() - 1
                } else {
                    span.len()
                }
            });
            assert_eq!(calls, stop_at + 1, "stopped in span {stop_at}");
        }
    }

    #[test]
    fn degree_equals_the_span_total_for_every_vertex() {
        let edges: Vec<Edge> = (0..400u32)
            .map(|i| Edge::new((i * 7) % 23, (i * 13) % 23))
            .collect();
        let base = EdgeList::new(23, edges).unwrap();
        let log = log_of((0..60u32).map(|i| match i % 3 {
            0 => DeltaOp::Delete {
                src: (i * 7) % 23,
                dst: (i * 13) % 23,
            },
            _ => DeltaOp::Insert(Edge::new((i * 5) % 23, (i * 11) % 23)),
        }));
        let list = delta_list(&base, &log);
        for dir in [list.out(), list.incoming()] {
            let mut total = 0;
            for v in 0..23 {
                let spanned: usize = span_ids(dir, v).iter().map(Vec::len).sum();
                assert_eq!(dir.degree(v), spanned, "vertex {v}");
                total += spanned;
            }
            assert_eq!(dir.num_edges(), total);
        }
        assert_eq!(list.num_edges(), log.merge_into(&base).num_edges());
    }

    #[test]
    fn an_empty_log_hands_out_the_base_csr_slices() {
        let edges: Vec<Edge> = (0..300u32).map(|i| Edge::new(i % 3, i % 5)).collect();
        let base = EdgeList::new(5, edges).unwrap();
        let list = delta_list(&base, &DeltaLog::new());
        for dir in [list.out(), list.incoming()] {
            assert_eq!(dir.resident_bytes(), dir.base().resident_bytes());
            for v in 0..5 {
                let mut got = Vec::new();
                dir.for_each_span(v, |span| {
                    got.push((span.as_ptr(), span.len()));
                    span.len()
                });
                let want: Vec<_> = dir
                    .base()
                    .neighbors(v)
                    .chunks(SPAN_EDGES)
                    .map(|span| (span.as_ptr(), span.len()))
                    .collect();
                assert_eq!(got, want, "vertex {v}");
            }
        }
    }

    #[test]
    fn ndjson_roundtrip_and_typed_errors() {
        let batch: DeltaBatch<Edge> = DeltaBatch::parse_ndjson(
            "{\"op\":\"insert\",\"src\":1,\"dst\":2}\n\n{\"op\":\"delete\",\"src\":0,\"dst\":2}\n",
        )
        .unwrap();
        assert_eq!(batch.len(), 2);
        assert!(batch.has_deletes());

        for (text, want) in [
            ("not json", DeltaError::NotJson { line: 1 }),
            (
                "{\"src\":1,\"dst\":2}",
                DeltaError::MissingField {
                    line: 1,
                    field: "op",
                },
            ),
            (
                "{\"op\":\"insert\",\"dst\":2}",
                DeltaError::MissingField {
                    line: 1,
                    field: "src",
                },
            ),
            (
                "{\"op\":\"insert\",\"src\":-3,\"dst\":2}",
                DeltaError::BadField {
                    line: 1,
                    field: "src",
                },
            ),
            (
                "{\"op\":\"frob\",\"src\":1,\"dst\":2}",
                DeltaError::UnknownOp {
                    line: 1,
                    op: "frob".into(),
                },
            ),
        ] {
            assert_eq!(
                DeltaBatch::<Edge>::parse_ndjson(text).unwrap_err(),
                want,
                "{text}"
            );
        }
    }

    #[test]
    fn fields_are_read_at_the_top_level_first_occurrence_winning() {
        let parse = |line: &str| DeltaBatch::<Edge>::parse_line(line, 1);
        for line in [
            r#"{"meta":{"op":"delete"},"op":"insert","src":1,"dst":2}"#,
            r#"{"x":{"src":7},"op":"insert","src":1,"dst":2}"#,
            r#"{"op":"insert","src":1,"dst":2,"op":"delete","src":7}"#,
            r#"{"id":"error","op":"insert","src":1,"dst":2}"#,
        ] {
            assert_eq!(parse(line), Ok(DeltaOp::Insert(Edge::new(1, 2))), "{line}");
        }
        let weighted = DeltaBatch::<WEdge>::parse_line(
            r#"{"w":{"weight":9},"op":"add","src":1,"dst":2,"weight":0.5,"weight":3}"#,
            1,
        );
        assert_eq!(weighted, Ok(DeltaOp::Insert(WEdge::new(1, 2, 0.5))));
        for (line, want) in [
            (
                r#"{"op":"insert","src":1,"dst":2} trailing"#,
                DeltaError::NotJson { line: 1 },
            ),
            (
                r#"[{"op":"insert","src":1,"dst":2}]"#,
                DeltaError::NotJson { line: 1 },
            ),
            (
                r#"{"op":"insert","src":"1","dst":2}"#,
                DeltaError::BadField {
                    line: 1,
                    field: "src",
                },
            ),
            (
                r#"{"op":"insert","src":1,"dst":2.5}"#,
                DeltaError::BadField {
                    line: 1,
                    field: "dst",
                },
            ),
            (
                r#"{"op":"insert","src":4294967296,"dst":2}"#,
                DeltaError::BadField {
                    line: 1,
                    field: "src",
                },
            ),
            (
                r#"{"op":"insert","src":1,"dst":2,"weight":"1"}"#,
                DeltaError::BadField {
                    line: 1,
                    field: "weight",
                },
            ),
            (
                r#"{"op":"insert","src":1,"dst":2,"weight":1e39}"#,
                DeltaError::BadField {
                    line: 1,
                    field: "weight",
                },
            ),
            (
                r#"{"op":7,"src":1,"dst":2}"#,
                DeltaError::BadField {
                    line: 1,
                    field: "op",
                },
            ),
        ] {
            assert_eq!(parse(line), Err(want), "{line}");
        }
    }

    #[test]
    fn apply_validates_and_compact_flips_epoch() {
        let dg = DeltaGraph::new(base_graph());
        assert_eq!(dg.epoch(), 0);
        let bad = DeltaBatch {
            ops: vec![DeltaOp::Insert(Edge::new(0, 9))],
        };
        assert_eq!(
            dg.apply(&bad).unwrap_err(),
            DeltaError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 5
            }
        );
        assert_eq!(dg.pending_ops(), 0);

        let good = DeltaBatch {
            ops: vec![
                DeltaOp::Insert(Edge::new(3, 4)),
                DeltaOp::Delete { src: 0, dst: 2 },
            ],
        };
        assert_eq!(dg.apply(&good).unwrap(), 2);
        assert!(dg.delta_fraction() > 0.0);
        let merged = dg.merged();
        assert_eq!(merged.num_edges(), 5);

        let reader = dg.snapshot(); // pinned to epoch 0
        let stats = dg.compact();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.merged_ops, 2);
        assert_eq!(stats.edges_after, 5);
        assert_eq!(dg.epoch(), 1);
        assert_eq!(dg.pending_ops(), 0);
        // The pinned reader still sees the pre-compaction graph.
        assert_eq!(reader.epoch, 0);
        assert_eq!(reader.edges.num_edges(), 5);
        assert_eq!(dg.snapshot().edges.num_edges(), 5);
        // Compacting an empty log is a no-op.
        assert_eq!(dg.compact().epoch, 1);
    }

    /// Satellite: readers pinned on the old epoch observe a consistent
    /// graph while the compactor publishes new ones. Runs under miri
    /// (the pointer-flip path is pure `Mutex<Arc>` + atomics).
    #[test]
    fn concurrent_readers_see_consistent_snapshots_during_compaction() {
        let stress = if cfg!(miri) { 4 } else { 64 };
        let dg = std::sync::Arc::new(DeltaGraph::new(base_graph()));
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let dg = std::sync::Arc::clone(&dg);
                    s.spawn(move || {
                        for _ in 0..stress {
                            let snap = dg.snapshot();
                            // Consistency: the edge list of a pinned
                            // snapshot never changes, whatever the
                            // compactor does meanwhile.
                            let n1 = snap.edges.num_edges();
                            std::thread::yield_now();
                            let n2 = snap.edges.num_edges();
                            assert_eq!(n1, n2);
                            assert!(snap.epoch <= dg.epoch());
                            for e in snap.edges.edges() {
                                assert!((e.src() as usize) < snap.edges.num_vertices());
                                assert!((e.dst() as usize) < snap.edges.num_vertices());
                            }
                        }
                    })
                })
                .collect();
            let writer = {
                let dg = std::sync::Arc::clone(&dg);
                s.spawn(move || {
                    for i in 0..stress {
                        let v = (i % 4) as u32;
                        dg.apply(&DeltaBatch {
                            ops: vec![DeltaOp::Insert(Edge::new(v, v + 1))],
                        })
                        .unwrap();
                        let stats = dg.compact();
                        assert_eq!(stats.epoch, (i + 1) as u64);
                    }
                })
            };
            for r in readers {
                r.join().unwrap();
            }
            writer.join().unwrap();
        });
        assert_eq!(dg.epoch(), stress as u64);
        assert_eq!(dg.snapshot().edges.num_edges(), 5 + stress);
    }
}
