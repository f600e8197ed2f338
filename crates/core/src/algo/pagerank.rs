//! PageRank \[24\] in every configuration of Fig. 3, Fig. 5 and Fig. 8:
//! vertex-centric push (locks or atomics), vertex-centric pull (no
//! locks), edge-centric, grid push (cells+locks or columns without
//! locks) and grid pull (the same columns, receiver-side).
//!
//! All variants run the same fixed number of power iterations (the
//! paper uses 10) with damping 0.85 and produce identical ranks up to
//! floating-point reassociation.

use super::{span_sum, Stripes};
use crate::engine::{EngineLayout, PullLayout, PullOp, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{Grid, NeighborAccess, OneWay};
use crate::metrics::{timed, IterStat, StepMode, SyncMode};
use crate::types::{EdgeList, EdgeRecord, VertexId};
use crate::util::{StripedLocks, UnsyncSlice};

/// Configuration of a PageRank run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagerankConfig {
    /// Maximum number of power iterations (the paper uses 10).
    pub iterations: usize,
    /// Damping factor.
    pub damping: f32,
    /// Optional convergence threshold: stop early once the L1 change
    /// of the rank vector drops below this (an extension beyond the
    /// paper's fixed iteration count; `None` reproduces the paper).
    pub tolerance: Option<f32>,
}

impl Default for PagerankConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            damping: 0.85,
            tolerance: None,
        }
    }
}

/// L1 distance between consecutive rank vectors, computed in parallel.
fn l1_delta(a: &[f32], b: &[f32]) -> f32 {
    egraph_parallel::parallel_reduce(
        0..a.len(),
        1 << 14,
        || 0.0f64,
        |acc, r| acc + r.map(|v| (a[v] - b[v]).abs() as f64).sum::<f64>(),
        |x, y| x + y,
    ) as f32
}

/// Returns `true` when iteration should stop early under `cfg`.
fn converged(cfg: &PagerankConfig, old: &[f32], new: &[f32]) -> bool {
    match cfg.tolerance {
        None => false,
        Some(tol) => l1_delta(old, new) < tol,
    }
}

/// The result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PagerankResult {
    /// Final rank per vertex.
    pub ranks: Vec<f32>,
    /// Iterations executed.
    pub iterations: usize,
    /// Wall-clock seconds spent in the algorithm.
    pub seconds: f64,
}

impl PagerankResult {
    /// Indices of the `k` highest-ranked vertices, descending.
    pub fn top_k(&self, k: usize) -> Vec<VertexId> {
        let mut idx: Vec<VertexId> = (0..self.ranks.len() as u32).collect();
        idx.sort_unstable_by(|&a, &b| {
            self.ranks[b as usize]
                .partial_cmp(&self.ranks[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.truncate(k);
        idx
    }
}

/// Per-source contribution table: `contrib[u] = rank[u] / out_degree[u]`.
fn contributions(ranks: &[f32], out_degrees: &[u32]) -> Vec<f32> {
    egraph_parallel::ops::parallel_init(ranks.len(), 1 << 14, |v| {
        let d = out_degrees[v];
        if d == 0 {
            0.0
        } else {
            ranks[v] / d as f32
        }
    })
}

/// Folds accumulated neighbor sums into the next rank vector.
fn finalize(acc: &[f32], damping: f32, nv: usize) -> Vec<f32> {
    let base = (1.0 - damping) / nv as f32;
    egraph_parallel::ops::parallel_init(nv, 1 << 14, |v| base + damping * acc[v])
}

/// The shared power-iteration loop: times each iteration, reports it to
/// the context's recorder (every vertex is active each step, so the
/// frontier size is `nv`), and handles the optional tolerance.
/// `accumulate` runs one contribution-gathering step.
fn run_power<F>(
    ctx: &ExecCtx<'_>,
    nv: usize,
    edges_per_iter: usize,
    mode: StepMode,
    out_degrees: &[u32],
    cfg: PagerankConfig,
    mut accumulate: F,
) -> PagerankResult
where
    F: FnMut(&[f32]) -> Vec<f32>,
{
    let mut ranks = vec![1.0 / nv.max(1) as f32; nv];
    let mut executed = 0usize;
    let mut total = 0.0f64;
    for _ in 0..cfg.iterations {
        let (new_ranks, seconds) = timed(|| {
            let contrib = contributions(&ranks, out_degrees);
            let acc = accumulate(&contrib);
            finalize(&acc, cfg.damping, nv)
        });
        total += seconds;
        if ctx.recorder.enabled() {
            // Power iteration activates every vertex every step; the
            // direction is a property of the variant, never a
            // per-iteration choice.
            let stat = IterStat::full_scan(nv, edges_per_iter, seconds, mode);
            ctx.recorder.record_iteration(executed, &stat);
        }
        executed += 1;
        let stop = converged(&cfg, &ranks, &new_ranks);
        ranks = new_ranks;
        if stop {
            break;
        }
    }
    PagerankResult {
        ranks,
        iterations: executed,
        seconds: total,
    }
}

/// Vertex-centric pull without locks: each vertex sums the
/// contributions of its in-neighbors and writes only its own
/// accumulator (Fig. 8, "adj. pull (no lock)"). Runs on any
/// [`NeighborAccess`] in-adjacency (uncompressed CSR or ccsr).
pub fn pull<E: EdgeRecord, A: NeighborAccess<E>>(
    incoming: &A,
    out_degrees: &[u32],
    cfg: PagerankConfig,
) -> PagerankResult {
    let incoming = OneWay::incoming(incoming);
    pull_impl(&incoming, out_degrees, cfg, &ExecCtx::default())
}

/// Pull PageRank on any layout that can pull: every power iteration is
/// one pull round in which each vertex's accumulator has a single
/// writer — the vertex's own task on an indexed layout, its column's on
/// the grid.
pub(crate) fn pull_impl<E: EdgeRecord, F, L: PullLayout<E, F>>(
    layout: &L,
    out_degrees: &[u32],
    cfg: PagerankConfig,
    ctx: &ExecCtx<'_>,
) -> PagerankResult {
    let nv = layout.num_vertices();
    run_power(
        ctx,
        nv,
        layout.num_edges(),
        StepMode::Pull,
        out_degrees,
        cfg,
        |contrib| {
            let mut acc = vec![0.0f32; nv];
            {
                struct PrPull<'a> {
                    contrib: &'a [f32],
                    acc: UnsyncSlice<'a, f32>,
                }
                impl<E: EdgeRecord> PullOp<E> for PrPull<'_> {
                    #[inline]
                    fn wants_pull(&self, _dst: VertexId) -> bool {
                        true
                    }

                    #[inline]
                    fn pull(&self, dst: VertexId, e: &E) -> bool {
                        // SAFETY: a pull round assigns each `dst` to
                        // exactly one worker, so `acc[dst]` has a single
                        // writer.
                        unsafe {
                            self.acc
                                .update(dst as usize, |a| *a += self.contrib[e.src() as usize]);
                        }
                        false
                    }

                    #[inline]
                    fn pull_span(&self, dst: VertexId, edges: &[E]) -> usize {
                        let sum = span_sum(edges, |e| self.contrib[e.src() as usize]);
                        // SAFETY: as in `pull` — single writer per `dst`.
                        unsafe {
                            self.acc.update(dst as usize, |a| *a += sum);
                        }
                        edges.len()
                    }

                    #[inline]
                    fn activated(&self, _dst: VertexId) -> bool {
                        false
                    }
                }
                let op = PrPull {
                    contrib,
                    acc: UnsyncSlice::new(&mut acc),
                };
                layout.pull_round(&op, ctx, FrontierKind::Sparse);
            }
            acc
        },
    )
}

/// Push rule accumulating under striped per-vertex locks — the paper's
/// lock-based synchronization ("40% of the algorithm execution time is
/// spent in code protected by locks", §6.1.2).
struct PrPushLocked<'a> {
    contrib: &'a [f32],
    acc: UnsyncSlice<'a, f32>,
    locks: &'a StripedLocks,
}

impl<E: EdgeRecord> PushOp<E> for PrPushLocked<'_> {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let dst = e.dst();
        self.locks.with(dst, || {
            // SAFETY: `acc[dst]` is only touched under `dst`'s stripe
            // lock during the parallel step.
            unsafe {
                self.acc
                    .update(dst as usize, |a| *a += self.contrib[e.src() as usize]);
            }
        });
        false
    }
}

/// Push rule with *plain* writes, for layouts whose push rounds
/// guarantee exclusive destination ownership
/// ([`EngineLayout::DST_EXCLUSIVE`]: grid columns).
struct PrPushExclusive<'a> {
    contrib: &'a [f32],
    acc: UnsyncSlice<'a, f32>,
}

impl<E: EdgeRecord> PushOp<E> for PrPushExclusive<'_> {
    #[inline]
    fn push(&self, e: &E) -> bool {
        // SAFETY: only used on `DST_EXCLUSIVE` layouts, whose push
        // rounds give this worker exclusive ownership of every
        // destination it sees.
        unsafe {
            self.acc
                .update(e.dst() as usize, |a| *a += self.contrib[e.src() as usize]);
        }
        false
    }
}

/// Vertex-centric push PageRank over an out-adjacency (Fig. 8, "adj.
/// push (locks)"). Runs on any [`NeighborAccess`] out-adjacency.
pub fn push<E: EdgeRecord, A: NeighborAccess<E>>(
    out: &A,
    out_degrees: &[u32],
    cfg: PagerankConfig,
    sync: SyncMode,
) -> PagerankResult {
    push_impl(
        &OneWay::out(out),
        out_degrees,
        cfg,
        sync,
        &ExecCtx::default(),
    )
}

/// Push PageRank on any layout: every power iteration is one push
/// round from the full vertex set. A layout whose rounds own their
/// destinations ([`EngineLayout::DST_EXCLUSIVE`]) gets plain writes;
/// elsewhere [`SyncMode::Atomics`] adds into per-worker [`Stripes`]
/// reduced once per iteration, and [`SyncMode::Locks`] into one vector
/// under striped locks.
pub(crate) fn push_impl<E: EdgeRecord, F, L: EngineLayout<E, F>>(
    layout: &L,
    out_degrees: &[u32],
    cfg: PagerankConfig,
    sync: SyncMode,
    ctx: &ExecCtx<'_>,
) -> PagerankResult {
    let nv = layout.num_vertices();
    let all = VertexSubset::all(nv);
    let mut stripes = (sync == SyncMode::Atomics && !L::DST_EXCLUSIVE).then(|| Stripes::new(nv));
    run_power(
        ctx,
        nv,
        layout.num_edges(),
        StepMode::Push,
        out_degrees,
        cfg,
        |contrib| {
            if let Some(stripes) = &mut stripes {
                let op = stripes.add(|e: &E| contrib[e.src() as usize]);
                layout.push_round(&all, &op, ctx, FrontierKind::Sparse);
                return stripes.drain();
            }
            let mut sums = vec![0.0f32; nv];
            let acc = UnsyncSlice::new(&mut sums);
            if L::DST_EXCLUSIVE {
                let op = PrPushExclusive { contrib, acc };
                layout.push_round(&all, &op, ctx, FrontierKind::Sparse);
            } else {
                let locks = StripedLocks::default();
                let op = PrPushLocked {
                    contrib,
                    acc,
                    locks: &locks,
                };
                layout.push_round(&all, &op, ctx, FrontierKind::Sparse);
            }
            sums
        },
    )
}

/// Edge-centric PageRank over the raw edge array (Fig. 3b).
pub fn edge_centric<E: EdgeRecord>(
    edges: &EdgeList<E>,
    out_degrees: &[u32],
    cfg: PagerankConfig,
    sync: SyncMode,
) -> PagerankResult {
    push_impl(edges, out_degrees, cfg, sync, &ExecCtx::default())
}

/// Grid-push PageRank. [`SyncMode::Locks`] iterates cells in arbitrary
/// parallel order with striped locks ("grid (locks)");
/// [`SyncMode::Atomics`] uses column ownership and plain writes, which
/// need no synchronization at all ("grid (no lock)") — Fig. 8.
pub fn grid_push<E: EdgeRecord>(
    grid: &Grid<E>,
    out_degrees: &[u32],
    cfg: PagerankConfig,
    sync: SyncMode,
) -> PagerankResult {
    let ctx = &ExecCtx::default();
    match sync {
        SyncMode::Locks => push_impl(&grid.cells(), out_degrees, cfg, sync, ctx),
        SyncMode::Atomics => push_impl(grid, out_degrees, cfg, sync, ctx),
    }
}

/// Grid-pull PageRank over the grid's columns: a column holds every
/// edge into its vertex range, so its worker owns the receivers and no
/// locks are needed ("grid pull (no lock)", Fig. 8). The same edges in
/// the same order as unlocked [`grid_push`], so the same ranks bit for
/// bit.
pub fn grid_pull<E: EdgeRecord>(
    grid: &Grid<E>,
    out_degrees: &[u32],
    cfg: PagerankConfig,
) -> PagerankResult {
    pull_impl(grid, out_degrees, cfg, &ExecCtx::default())
}

/// Serial reference PageRank for validation.
pub fn reference<E: EdgeRecord>(
    edges: &EdgeList<E>,
    out_degrees: &[u32],
    cfg: PagerankConfig,
) -> Vec<f32> {
    let nv = edges.num_vertices();
    let mut ranks = vec![1.0 / nv.max(1) as f32; nv];
    for _ in 0..cfg.iterations {
        let mut acc = vec![0.0f32; nv];
        for e in edges.edges() {
            let d = out_degrees[e.src() as usize];
            if d > 0 {
                acc[e.dst() as usize] += ranks[e.src() as usize] / d as f32;
            }
        }
        let base = (1.0 - cfg.damping) / nv as f32;
        for v in 0..nv {
            ranks[v] = base + cfg.damping * acc[v];
        }
    }
    ranks
}

/// Serial Jacobi PageRank run to convergence in f64 — the update
/// oracle's ground truth. Unlike [`reference`] (which reproduces the
/// paper's fixed iteration count), this solves the fixed point
/// `r = (1-d)/n + d·Σ r_u/deg_u` to machine-level precision, so it is
/// comparable with [`IncrementalPagerank`], which converges to the same
/// fixed point by a different route.
pub fn reference_converged<E: EdgeRecord>(
    edges: &EdgeList<E>,
    out_degrees: &[u32],
    damping: f32,
) -> Vec<f32> {
    let nv = edges.num_vertices();
    if nv == 0 {
        return Vec::new();
    }
    let damping = f64::from(damping);
    let base = (1.0 - damping) / nv as f64;
    let mut ranks = vec![1.0 / nv as f64; nv];
    for _ in 0..CONVERGED_MAX_ITERS {
        let mut acc = vec![0.0f64; nv];
        for e in edges.edges() {
            let d = out_degrees[e.src() as usize];
            if d > 0 {
                acc[e.dst() as usize] += ranks[e.src() as usize] / f64::from(d);
            }
        }
        let mut max_delta = 0.0f64;
        for v in 0..nv {
            let next = base + damping * acc[v];
            max_delta = max_delta.max((next - ranks[v]).abs());
            ranks[v] = next;
        }
        if max_delta < CONVERGED_EPS {
            break;
        }
    }
    ranks.into_iter().map(|r| r as f32).collect()
}

/// Per-entry convergence threshold of [`reference_converged`] — far
/// below the testkit's f32 comparison tolerance, so the reference is
/// the fixed point to f32 precision.
const CONVERGED_EPS: f64 = 1e-12;

/// Iteration cap of the converging solves; at damping 0.85 the power
/// method contracts by ~0.85/iter, so 1e-12 needs ~170 iterations.
const CONVERGED_MAX_ITERS: usize = 1000;

/// L1 change of one power iteration at which [`IncrementalPagerank`]'s
/// from-scratch solve stops. The pull kernel iterates in f32, whose
/// rounding leaves an L1 floor near 1.2e-7 on a rank vector summing to
/// at most 1; the ranks it stops at are within `d/(1-d)` times this
/// (≈ 5.7e-6 at d = 0.85) of the fixed point in L1.
const SOLVE_TOLERANCE: f32 = 1e-6;

/// Residual push threshold of [`IncrementalPagerank`]'s repair path.
///
/// Each abandoned residual bounds that vertex's rank error by
/// `REPAIR_EPS/(1-d)` per batch — orders of magnitude inside the
/// testkit's 1e-4 conformance tolerance even accumulated over many
/// batches — while keeping the pushed frontier proportional to the
/// batch instead of the graph.
const REPAIR_EPS: f64 = 1e-8;

/// Incremental PageRank over the delta layout (DESIGN.md §16): keeps
/// the f64 rank vector of the previous graph and, per applied batch,
/// repairs only the region the changed edges perturb.
///
/// The initial ranks, and the ranks after a batch above
/// [`super::INCREMENTAL_FALLBACK_FRACTION`], are the batch pull kernel
/// run on the merged view until an iteration's L1 change drops under
/// [`SOLVE_TOLERANCE`], widened to f64. Any other batch is repaired by
/// a Gauss–Southwell residual push seeded at the endpoints of every
/// changed edge and the out-neighbors of every changed source (their
/// in-sum term `r_src/deg_src` moved even when `r_src` did not): on
/// small deltas the residual decays geometrically and the pushes stay
/// near the changed region.
#[derive(Debug, Clone)]
pub struct IncrementalPagerank {
    damping: f64,
    ranks: Vec<f64>,
    /// The repair's per-vertex state, allocated once; each repair
    /// resets the slots it listed.
    slots: Vec<RepairSlot>,
    batches_applied: usize,
}

/// One vertex's state during [`IncrementalPagerank`]'s repair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RepairSlot {
    /// Residual of the vertex's fixed-point equation.
    res: f64,
    /// In use this batch: the residual was computed exactly while
    /// seeding, or pushed mass arrived. Listed for the reset.
    listed: bool,
    /// On the worklist.
    queued: bool,
}

impl IncrementalPagerank {
    /// Solves the initial graph with the pull kernel, to
    /// [`SOLVE_TOLERANCE`]. `merged` must expose both directions;
    /// `degrees` are its out-degrees.
    pub fn new<E, L>(merged: &L, degrees: &[u32], damping: f32) -> Self
    where
        E: EdgeRecord,
        L: crate::layout::VertexLayout<E>,
    {
        Self {
            damping: f64::from(damping),
            ranks: Self::fixed_point(merged, degrees, damping, &ExecCtx::default()),
            slots: vec![RepairSlot::default(); merged.num_vertices()],
            batches_applied: 0,
        }
    }

    /// The pull kernel on `merged`, stopped at [`SOLVE_TOLERANCE`] and
    /// widened to f64.
    fn fixed_point<E, L>(merged: &L, degrees: &[u32], damping: f32, ctx: &ExecCtx<'_>) -> Vec<f64>
    where
        E: EdgeRecord,
        L: crate::layout::VertexLayout<E>,
    {
        let cfg = PagerankConfig {
            iterations: CONVERGED_MAX_ITERS,
            damping,
            tolerance: Some(SOLVE_TOLERANCE),
        };
        let ranks = ctx.scoped(|| pull_impl(merged, degrees, cfg, ctx).ranks);
        ranks.into_iter().map(f64::from).collect()
    }

    /// The current ranks, rounded to the f32 the batch variants emit.
    pub fn ranks(&self) -> Vec<f32> {
        self.ranks.iter().map(|&r| r as f32).collect()
    }

    /// Repairs the ranks after `batch` was applied to the graph.
    /// `merged` is the post-batch graph (typically a
    /// [`crate::layout::DeltaList`] over the unchanged base CSR) and
    /// `degrees` its out-degrees.
    pub fn apply<E, L>(
        &mut self,
        merged: &L,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        L: crate::layout::VertexLayout<E>,
    {
        self.apply_ctx(merged, degrees, batch, &ExecCtx::default())
    }

    /// [`Self::apply`] with an execution context: each applied batch is
    /// reported to the recorder as one iteration (the decision log
    /// shows the batch size against the full-solve fallback cutoff).
    pub fn apply_ctx<E, L>(
        &mut self,
        merged: &L,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        L: crate::layout::VertexLayout<E>,
    {
        let (outcome, seconds) = timed(|| self.apply_inner(merged, degrees, batch, ctx));
        super::record_repair(
            ctx,
            &mut self.batches_applied,
            outcome,
            batch.len(),
            merged.num_edges(),
            seconds,
        );
        outcome
    }

    fn apply_inner<E, L>(
        &mut self,
        merged: &L,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        L: crate::layout::VertexLayout<E>,
    {
        let fraction = batch.len() as f64 / merged.num_edges().max(1) as f64;
        if fraction > super::INCREMENTAL_FALLBACK_FRACTION {
            // Unrecorded, so the batch stays one iteration record.
            let quiet = ExecCtx::new(ctx.pool());
            self.ranks = Self::fixed_point(merged, degrees, self.damping as f32, &quiet);
            return super::IncrementalOutcome {
                fallback: true,
                touched: merged.num_vertices(),
            };
        }
        let touched = self.repair(merged, degrees, batch);
        super::IncrementalOutcome {
            fallback: false,
            touched,
        }
    }

    /// Gauss–Southwell residual push for the repair path.
    ///
    /// The previous ranks were converged, so after a batch the linear
    /// system's residual `res_v = (1-d)/n + d·Σ_{u→v} r_u/deg_u − r_v`
    /// is nonzero only where an in-sum term moved: at the endpoints of
    /// changed edges and at the out-neighbors of every changed source
    /// (whose `r_src/deg_src` term changed with `deg_src`). Those
    /// residuals are computed exactly, then pushed forward — absorbing
    /// `res_v` into `ranks_v` sends `d·res_v/deg_v` of fresh residual
    /// to each out-neighbor — until every residual is under
    /// [`REPAIR_EPS`]. Each push destroys at least `(1-d)·|res_v|` of
    /// residual mass, so the work is proportional to the perturbation,
    /// not the graph: a worklist that re-relaxes every vertex moving by
    /// more than a threshold re-relaxes the whole graph on
    /// low-diameter inputs.
    fn repair<E, L>(
        &mut self,
        merged: &L,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
    ) -> usize
    where
        E: EdgeRecord,
        L: crate::layout::VertexLayout<E>,
    {
        let nv = merged.num_vertices();
        if nv == 0 {
            return 0;
        }
        let (damping, ranks, slots) = (self.damping, &mut self.ranks, &mut self.slots[..nv]);
        let base = (1.0 - damping) / nv as f64;
        let mut listed = Vec::new();
        let mut worklist = std::collections::VecDeque::new();
        let affect = |v: VertexId,
                      slots: &mut [RepairSlot],
                      listed: &mut Vec<VertexId>,
                      worklist: &mut std::collections::VecDeque<VertexId>| {
            if slots[v as usize].listed {
                return;
            }
            let mut sum = 0.0f64;
            merged.incoming().for_each_span(v, |span| {
                for e in span {
                    // In-adjacency records keep their original
                    // orientation: the in-neighbor is `src`.
                    let d = degrees[e.src() as usize];
                    if d > 0 {
                        sum += ranks[e.src() as usize] / f64::from(d);
                    }
                }
                span.len()
            });
            let slot = &mut slots[v as usize];
            slot.listed = true;
            listed.push(v);
            slot.res = base + damping * sum - ranks[v as usize];
            if slot.res.abs() > REPAIR_EPS {
                slot.queued = true;
                worklist.push_back(v);
            }
        };
        for op in &batch.ops {
            let (src, dst) = op.endpoints();
            affect(src, slots, &mut listed, &mut worklist);
            affect(dst, slots, &mut listed, &mut worklist);
            merged.out().for_each_span(src, |span| {
                for e in span {
                    affect(e.dst(), slots, &mut listed, &mut worklist);
                }
                span.len()
            });
        }
        let mut pushes = 0usize;
        while let Some(v) = worklist.pop_front() {
            let slot = &mut slots[v as usize];
            slot.queued = false;
            let r = slot.res;
            if r.abs() <= REPAIR_EPS {
                continue;
            }
            pushes += 1;
            ranks[v as usize] += r;
            // Zero before distributing so a self-loop's share lands.
            slot.res = 0.0;
            let deg = degrees[v as usize];
            if deg == 0 {
                // Dangling source: its mass teleports, like in the
                // batch kernels and the serial reference.
                continue;
            }
            let share = damping * r / f64::from(deg);
            merged.out().for_each_span(v, |span| {
                for e in span {
                    let w = e.dst();
                    let slot = &mut slots[w as usize];
                    slot.res += share;
                    if !slot.listed {
                        slot.listed = true;
                        listed.push(w);
                    }
                    if slot.res.abs() > REPAIR_EPS && !slot.queued {
                        slot.queued = true;
                        worklist.push_back(w);
                    }
                }
                span.len()
            });
        }
        for v in listed {
            slots[v as usize] = RepairSlot::default();
        }
        pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EdgeDirection;
    use crate::preprocess::{CsrBuilder, GridBuilder, Strategy};
    use crate::types::Edge;

    fn test_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<Edge> {
        let mut state = seed | 1;
        let mut edges = Vec::with_capacity(ne);
        for _ in 0..ne {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let src = ((state >> 33) % nv as u64) as u32;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dst = ((state >> 33) % nv as u64) as u32;
            edges.push(Edge::new(src, dst));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, name: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() <= tol * (a[i].abs() + b[i].abs() + 1e-6),
                "{name}: rank[{i}] {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn all_variants_match_reference() {
        let input = test_graph(300, 4000, 99);
        let degrees: Vec<u32> = input.out_degrees().iter().map(|&d| d as u32).collect();
        let cfg = PagerankConfig {
            iterations: 5,
            ..Default::default()
        };
        let expected = reference(&input, &degrees, cfg);

        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        let grid = GridBuilder::new(Strategy::RadixSort).side(4).build(&input);

        let variants: Vec<(&str, PagerankResult)> = vec![
            ("pull", pull(adj.incoming(), &degrees, cfg)),
            (
                "push-locks",
                push(adj.out(), &degrees, cfg, SyncMode::Locks),
            ),
            (
                "push-atomics",
                push(adj.out(), &degrees, cfg, SyncMode::Atomics),
            ),
            (
                "edge-atomics",
                edge_centric(&input, &degrees, cfg, SyncMode::Atomics),
            ),
            (
                "edge-locks",
                edge_centric(&input, &degrees, cfg, SyncMode::Locks),
            ),
            (
                "grid-nolock",
                grid_push(&grid, &degrees, cfg, SyncMode::Atomics),
            ),
            (
                "grid-locks",
                grid_push(&grid, &degrees, cfg, SyncMode::Locks),
            ),
            ("grid-pull", grid_pull(&grid, &degrees, cfg)),
        ];
        for (name, result) in variants {
            assert_eq!(result.iterations, 5);
            assert_close(&result.ranks, &expected, 1e-3, name);
        }
    }

    #[test]
    fn ranks_sum_to_at_most_one() {
        // With dangling vertices, total rank leaks but never exceeds 1.
        let input = test_graph(200, 1000, 5);
        let degrees: Vec<u32> = input.out_degrees().iter().map(|&d| d as u32).collect();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In).build(&input);
        let result = pull(adj.incoming(), &degrees, PagerankConfig::default());
        let total: f32 = result.ranks.iter().sum();
        assert!(total <= 1.0 + 1e-3, "total = {total}");
        assert!(total > 0.1);
    }

    #[test]
    fn hub_ranks_highest() {
        // A star graph: everyone points at vertex 0.
        let edges: Vec<Edge> = (1..100).map(|v| Edge::new(v, 0)).collect();
        let input = EdgeList::new(100, edges).unwrap();
        let degrees: Vec<u32> = input.out_degrees().iter().map(|&d| d as u32).collect();
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::In).build(&input);
        let result = pull(adj.incoming(), &degrees, PagerankConfig::default());
        assert_eq!(result.top_k(1), vec![0]);
        assert!(result.ranks[0] > 10.0 * result.ranks[1]);
    }

    #[test]
    fn tolerance_stops_early_with_same_answer() {
        let input = test_graph(200, 2000, 12);
        let degrees: Vec<u32> = input.out_degrees().iter().map(|&d| d as u32).collect();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In).build(&input);
        let exact = pull(
            adj.incoming(),
            &degrees,
            PagerankConfig {
                iterations: 100,
                ..Default::default()
            },
        );
        let tol = pull(
            adj.incoming(),
            &degrees,
            PagerankConfig {
                iterations: 100,
                tolerance: Some(1e-7),
                ..Default::default()
            },
        );
        assert!(
            tol.iterations < exact.iterations,
            "tolerance should stop early: {} vs {}",
            tol.iterations,
            exact.iterations
        );
        for v in 0..exact.ranks.len() {
            assert!(
                (tol.ranks[v] - exact.ranks[v]).abs() < 1e-4,
                "rank[{v}] diverged"
            );
        }
    }

    #[test]
    fn result_reports_executed_iterations() {
        let input = test_graph(50, 300, 4);
        let degrees: Vec<u32> = input.out_degrees().iter().map(|&d| d as u32).collect();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In).build(&input);
        let cfg = PagerankConfig {
            iterations: 7,
            ..Default::default()
        };
        assert_eq!(pull(adj.incoming(), &degrees, cfg).iterations, 7);
    }

    #[test]
    fn zero_iterations_keeps_uniform() {
        let input = test_graph(50, 100, 3);
        let degrees: Vec<u32> = input.out_degrees().iter().map(|&d| d as u32).collect();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In).build(&input);
        let cfg = PagerankConfig {
            iterations: 0,
            ..Default::default()
        };
        let result = pull(adj.incoming(), &degrees, cfg);
        assert!(result.ranks.iter().all(|&r| (r - 0.02).abs() < 1e-6));
    }

    /// Merged delta layout + its out-degrees, the incremental engine's
    /// two inputs.
    fn delta_view(
        base: &EdgeList<Edge>,
        log: &crate::layout::DeltaLog<Edge>,
    ) -> (crate::layout::DeltaList<Edge>, Vec<u32>) {
        use crate::layout::VertexLayout;
        let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
            .sort_neighbors(true)
            .build(base)
            .into_parts();
        let dl = crate::layout::DeltaList::new(out, inc, log);
        let degrees: Vec<u32> = (0..base.num_vertices() as u32)
            .map(|v| dl.out().degree(v) as u32)
            .collect();
        (dl, degrees)
    }

    #[test]
    fn incremental_pagerank_tracks_the_converged_reference_through_updates() {
        use crate::layout::{DeltaBatch, DeltaLog, DeltaOp};
        let base = test_graph(64, 400, 7);
        let mut log = DeltaLog::new();
        let (dl, degrees) = delta_view(&base, &log);
        let mut engine = IncrementalPagerank::new(&dl, &degrees, 0.85);
        let want = reference_converged(&base, &degrees, 0.85);
        assert_close(&engine.ranks(), &want, 1e-4, "initial solve");

        // A small mixed batch repairs incrementally.
        let mut batch = DeltaBatch::new();
        batch.ops.push(DeltaOp::Insert(Edge::new(0, 63)));
        batch.ops.push(DeltaOp::Insert(Edge::new(63, 1)));
        batch.ops.push(DeltaOp::Delete { src: 3, dst: 5 });
        for op in &batch.ops {
            log.push(*op);
        }
        let merged = log.merge_into(&base);
        let (dl, degrees) = delta_view(&base, &log);
        let outcome = engine.apply(&dl, &degrees, &batch);
        assert!(!outcome.fallback, "3 ops on 400 edges stays incremental");
        let idle = RepairSlot::default();
        assert!(
            engine.slots.iter().all(|s| *s == idle),
            "a repair resets its slots"
        );
        let want = reference_converged(&merged, &degrees, 0.85);
        assert_close(&engine.ranks(), &want, 1e-4, "after small batch");

        // A batch above the threshold falls back to a full solve.
        let mut big = DeltaBatch::new();
        for v in 0..30u32 {
            big.ops.push(DeltaOp::Insert(Edge::new(v, v + 30)));
        }
        for op in &big.ops {
            log.push(*op);
        }
        let merged = log.merge_into(&base);
        let (dl, degrees) = delta_view(&base, &log);
        let outcome = engine.apply(&dl, &degrees, &big);
        assert!(outcome.fallback, "30 ops on ~400 edges exceeds 5%");
        assert_eq!(
            outcome.touched, 64,
            "a fallback recomputes each vertex once"
        );
        let want = reference_converged(&merged, &degrees, 0.85);
        assert_close(&engine.ranks(), &want, 1e-4, "after fallback");
    }
}
