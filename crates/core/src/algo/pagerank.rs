//! PageRank \[24\] in every configuration of Fig. 3, Fig. 5 and Fig. 8:
//! vertex-centric push (locks or atomics), vertex-centric pull (no
//! locks), edge-centric, grid push (cells+locks or columns without
//! locks) and grid pull (the same columns, receiver-side).
//!
//! All variants run the same fixed number of power iterations (the
//! paper uses 10) with damping 0.85 and produce identical ranks up to
//! floating-point reassociation.

use super::{span_sum, Stripes};
use crate::engine::{vertex_pull, EngineLayout, PullLayout, PullOp, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{NeighborAccess, Sides, VertexLayout};
use crate::metrics::{timed, IterStat, StepMode, SyncMode};
use crate::types::{EdgeList, EdgeRecord, VertexId};
use crate::util::{StripedLocks, UnsyncSlice};

/// Configuration of a PageRank run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagerankConfig {
    /// Number of power iterations (the paper uses 10).
    pub iterations: usize,
    /// Damping factor.
    pub damping: f32,
}

impl Default for PagerankConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            damping: 0.85,
        }
    }
}

/// Run counter: sweeps of [`IncrementalPagerank`]'s last solve,
/// recorded on the context of each applied batch.
pub const SWEEPS: &str = "pagerank.sweeps";

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

/// The shared power-iteration loop: times each iteration and reports
/// it to the context's recorder (every vertex is active each step, so
/// the frontier size is `nv`). `accumulate` runs one
/// contribution-gathering step. Iteration starts from the uniform
/// vector.
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
    let mut ranks = uniform(nv);
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
        ranks = new_ranks;
    }
    PagerankResult {
        ranks,
        iterations: executed,
        seconds: total,
    }
}

/// The uniform start vector.
fn uniform(nv: usize) -> Vec<f32> {
    vec![1.0 / nv.max(1) as f32; nv]
}

/// PageRank's pull rule: each receiver adds its in-neighbors'
/// contributions into its own slot of `acc`.
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
        // SAFETY: a pull round assigns each `dst` to exactly one
        // worker, so `acc[dst]` has a single writer.
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
            let op = PrPull {
                contrib,
                acc: UnsyncSlice::new(&mut acc),
            };
            layout.pull_round(&op, ctx, FrontierKind::Sparse);
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
/// comparable with [`IncrementalPagerank`], which iterates in f32 to a
/// tolerance.
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

/// L1 change of one sweep at which [`IncrementalPagerank`]'s solves
/// stop. The sweep iterates in f32, whose rounding leaves an L1 floor
/// near 1.2e-7 on a rank vector summing to at most 1.
///
/// What holds when a sweep stops, from any start vector: write
/// `I − dP = M − N`, with `N` the part of `dP` whose sources lie in the
/// receiver's own block or a later one (the values a block reads from
/// last sweep). A sweep solves `M·x = b + N·x_prev`, so its result
/// leaves the residual `N·Δ`, Δ being the sweep's change. Each source's
/// column of `N` sums to at most `d`, and `(I − dP)⁻¹` has L1 norm at
/// most `1/(1−d)`, so the ranks are within `d/(1−d)` times the last
/// change (≈ 5.7e-6 at d = 0.85) of the fixed point in L1, up to f32
/// rounding — the bound of a Jacobi sweep (`N = dP`), which only tightens
/// with smaller `N`. Measured: 2.0e-6 to 3.3e-6 in L1 over a cold and
/// ten warm solves of the unit test's graph, and 2.2e-6 to 2.9e-6
/// relative L1 after RMAT-16 `update_stream` runs of 88–118 batches,
/// where Jacobi sweeps ended at 5.0e-6 to 5.8e-6 (after 72–96).
const SOLVE_TOLERANCE: f32 = 1e-6;

/// Receivers per block of [`IncrementalPagerank`]'s block-ordered
/// sweep. Ten warm 0.2 % batches on a permuted RMAT-16 (2 vCPUs) took
/// 50–51 ms per solve at 4 096, 49–54 ms at 8 192 and 16 384, 55–76 ms
/// at 2 048, 73–85 ms at 1 024 and 67–73 ms at 65 536 (one block: a
/// Jacobi sweep). Smaller blocks save few sweeps and pay one parallel
/// region each.
const SWEEP_BLOCK: usize = 4096;

/// Commits one pulled block: turns each receiver's sum in `acc` into
/// its rank and contribution, and returns the block's L1 change
/// (summed in fixed lanes, so in an order set by the ids alone),
/// leaving `acc` zeroed for the next block.
fn commit(
    acc: &mut [f32],
    ranks: &mut [f32],
    contrib: &mut [f32],
    degrees: &[u32],
    base: f32,
    damping: f32,
) -> f64 {
    for (((a, r), c), &d) in acc.iter_mut().zip(ranks).zip(contrib).zip(degrees) {
        let next = base + damping * *a;
        *a = (next - *r).abs();
        *r = next;
        *c = if d == 0 { 0.0 } else { next / d as f32 };
    }
    let change = span_sum(acc, |&x| x);
    acc.fill(0.0);
    f64::from(change)
}

/// Incremental PageRank over the delta layout (DESIGN.md §16): keeps
/// the rank vector of the previous graph and re-solves from it after
/// each applied batch.
///
/// Every solve is a block-ordered (block Gauss–Seidel) sweep over the
/// merged view's in-direction, repeated until a sweep's L1 change drops
/// under [`SOLVE_TOLERANCE`]. The initial solve, and the solve after a
/// batch above [`super::INCREMENTAL_FALLBACK_FRACTION`], start cold
/// from the uniform vector; any other batch starts warm from the
/// current ranks, which a small batch moves little, so the solve skips
/// the sweeps those ranks are already ahead by.
#[derive(Debug, Clone)]
pub struct IncrementalPagerank {
    damping: f32,
    ranks: Vec<f32>,
    sweeps: usize,
    batches_applied: usize,
}

impl IncrementalPagerank {
    /// Solves the initial graph cold, to [`SOLVE_TOLERANCE`]. `merged`
    /// must expose its in-direction; `degrees` are its out-degrees.
    pub fn new<E, D>(merged: &Sides<D>, degrees: &[u32], damping: f32) -> Self
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let (ranks, sweeps) =
            Self::fixed_point(merged, degrees, damping, None, &ExecCtx::default());
        Self {
            damping,
            ranks,
            sweeps,
            batches_applied: 0,
        }
    }

    /// Block-ordered sweeps over `merged` from `start` (or the uniform
    /// vector) until one changes the ranks by less than
    /// [`SOLVE_TOLERANCE`] in L1; returns the ranks and the sweep
    /// count.
    ///
    /// A sweep visits the blocks of [`SWEEP_BLOCK`] vertex ids in id
    /// order. Each block is one `vertex_pull` over its receivers, every
    /// one reading its sources' contributions as they stood when the
    /// block began: sources in earlier blocks give this sweep's value,
    /// the rest last sweep's. The block's ranks, contributions and L1
    /// change are then committed in id order, so ranks and sweep count
    /// depend on the vertex ids alone, never on the pool width. The
    /// buffers are allocated once per solve.
    fn fixed_point<E, D>(
        merged: &Sides<D>,
        degrees: &[u32],
        damping: f32,
        start: Option<&[f32]>,
        ctx: &ExecCtx<'_>,
    ) -> (Vec<f32>, usize)
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let view = merged.as_ref();
        let incoming = view.incoming();
        let nv = VertexLayout::num_vertices(merged);
        let base = (1.0 - damping) / nv as f32;
        ctx.scoped(|| {
            let mut ranks = start.map_or_else(|| uniform(nv), <[f32]>::to_vec);
            let mut contrib = contributions(&ranks, degrees);
            let mut acc = vec![0.0f32; nv];
            let mut sweeps = 0;
            while sweeps < CONVERGED_MAX_ITERS {
                sweeps += 1;
                let mut change = 0.0f64;
                for first in (0..nv).step_by(SWEEP_BLOCK) {
                    let block = first..nv.min(first + SWEEP_BLOCK);
                    let op = PrPull {
                        contrib: &contrib,
                        acc: UnsyncSlice::new(&mut acc),
                    };
                    vertex_pull(incoming, block.clone(), &op, ctx, FrontierKind::Sparse);
                    change += commit(
                        &mut acc[block.clone()],
                        &mut ranks[block.clone()],
                        &mut contrib[block.clone()],
                        &degrees[block],
                        base,
                        damping,
                    );
                }
                if change < f64::from(SOLVE_TOLERANCE) {
                    break;
                }
            }
            (ranks, sweeps)
        })
    }

    /// The current ranks.
    pub fn ranks(&self) -> Vec<f32> {
        self.ranks.clone()
    }

    /// Sweeps of the last solve.
    pub(crate) fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Re-solves the ranks after `batch` was applied to the graph.
    /// `merged` is the post-batch graph (typically a
    /// [`crate::layout::DeltaList`] over the unchanged base CSR) and
    /// `degrees` its out-degrees.
    pub fn apply<E, D>(
        &mut self,
        merged: &Sides<D>,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        self.apply_ctx(merged, degrees, batch, &ExecCtx::default())
    }

    /// [`Self::apply`] with an execution context: each applied batch is
    /// reported to the recorder as one iteration (the decision log
    /// shows the batch size against the full-solve fallback cutoff),
    /// and its solve's sweeps as the run counter [`SWEEPS`].
    pub fn apply_ctx<E, D>(
        &mut self,
        merged: &Sides<D>,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let (outcome, seconds) = timed(|| self.apply_inner(merged, degrees, batch, ctx));
        super::record_repair(
            ctx,
            &mut self.batches_applied,
            outcome,
            batch.len(),
            VertexLayout::num_edges(merged),
            seconds,
        );
        if ctx.recorder.enabled() {
            ctx.recorder.record_counter(SWEEPS, self.sweeps() as u64);
        }
        outcome
    }

    fn apply_inner<E, D>(
        &mut self,
        merged: &Sides<D>,
        degrees: &[u32],
        batch: &crate::layout::DeltaBatch<E>,
        ctx: &ExecCtx<'_>,
    ) -> super::IncrementalOutcome
    where
        E: EdgeRecord,
        D: NeighborAccess<E>,
    {
        let fraction = batch.len() as f64 / VertexLayout::num_edges(merged).max(1) as f64;
        let fallback = fraction > super::INCREMENTAL_FALLBACK_FRACTION;
        let start = (!fallback).then_some(self.ranks.as_slice());
        // Unrecorded, so the batch stays one iteration record.
        let quiet = ExecCtx::new(ctx.pool());
        (self.ranks, self.sweeps) = Self::fixed_point(merged, degrees, self.damping, start, &quiet);
        super::IncrementalOutcome {
            fallback,
            touched: VertexLayout::num_vertices(merged),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EdgeDirection, NeighborAccess};
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

        let ctx = ExecCtx::default();
        let variants: Vec<(&str, PagerankResult)> = vec![
            ("pull", pull_impl(&adj, &degrees, cfg, &ctx)),
            (
                "push-locks",
                push_impl(&adj, &degrees, cfg, SyncMode::Locks, &ctx),
            ),
            (
                "push-atomics",
                push_impl(&adj, &degrees, cfg, SyncMode::Atomics, &ctx),
            ),
            (
                "edge-atomics",
                push_impl(&input, &degrees, cfg, SyncMode::Atomics, &ctx),
            ),
            (
                "edge-locks",
                push_impl(&input, &degrees, cfg, SyncMode::Locks, &ctx),
            ),
            (
                "grid-nolock",
                push_impl(&grid, &degrees, cfg, SyncMode::Atomics, &ctx),
            ),
            (
                "grid-locks",
                push_impl(&grid.cells(), &degrees, cfg, SyncMode::Locks, &ctx),
            ),
            ("grid-pull", pull_impl(&grid, &degrees, cfg, &ctx)),
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
        let result = pull_impl(
            &adj,
            &degrees,
            PagerankConfig::default(),
            &ExecCtx::default(),
        );
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
        let result = pull_impl(
            &adj,
            &degrees,
            PagerankConfig::default(),
            &ExecCtx::default(),
        );
        assert_eq!(result.top_k(1), vec![0]);
        assert!(result.ranks[0] > 10.0 * result.ranks[1]);
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
        assert_eq!(
            pull_impl(&adj, &degrees, cfg, &ExecCtx::default()).iterations,
            7
        );
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
        let result = pull_impl(&adj, &degrees, cfg, &ExecCtx::default());
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

        // A small mixed batch re-solves warm.
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
        let want = reference_converged(&merged, &degrees, 0.85);
        assert_close(&engine.ranks(), &want, 1e-4, "after small batch");

        // Forty more small mixed batches, the first of which leaves
        // vertex 9 dangling: every warm re-solve lands within 1e-5 of the fixed
        // point, and the error does not build up with the batch count.
        let mut state = 11u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as u32
        };
        let mut errors = Vec::new();
        for step in 0..40 {
            let live = log.merge_into(&base);
            let mut batch = DeltaBatch::new();
            if step == 0 {
                for e in live.edges().iter().filter(|e| e.src == 9) {
                    batch.ops.push(DeltaOp::Delete { src: 9, dst: e.dst });
                }
            } else {
                for _ in 0..2 {
                    let (src, dst) = (next(64), next(64));
                    batch.ops.push(DeltaOp::Insert(Edge::new(src, dst)));
                }
                let e = live.edges()[next(live.num_edges()) as usize];
                batch.ops.push(DeltaOp::Delete {
                    src: e.src,
                    dst: e.dst,
                });
            }
            for op in &batch.ops {
                log.push(*op);
            }
            let merged = log.merge_into(&base);
            let (dl, degrees) = delta_view(&base, &log);
            if step == 0 {
                assert_eq!(degrees[9], 0, "vertex 9 is dangling");
            }
            let outcome = engine.apply(&dl, &degrees, &batch);
            assert!(!outcome.fallback, "batch {step} stays incremental");
            assert_eq!(outcome.touched, 64, "a warm re-solve visits each vertex");
            let want = reference_converged(&merged, &degrees, 0.85);
            let error = engine
                .ranks()
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(error <= 1e-5, "batch {step}: max rank error {error:e}");
            errors.push(error);
        }
        let worst = |errors: &[f32]| errors.iter().copied().fold(0.0f32, f32::max);
        assert!(
            worst(&errors[30..]) <= 2.0 * worst(&errors[..10]),
            "the error grows with the batch count: {errors:?}"
        );

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

    /// A seeded RMAT graph (a = 0.57, b = c = 0.19, d = 0.05):
    /// `2^scale` vertices, `edge_factor · 2^scale` edges.
    fn rmat_graph(scale: u32, edge_factor: usize, seed: u64) -> EdgeList<Edge> {
        let nv = 1usize << scale;
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let edges = (0..edge_factor * nv)
            .map(|_| {
                let (mut src, mut dst) = (0u32, 0u32);
                for _ in 0..scale {
                    let (s, d) = match next() % 100 {
                        0..=56 => (0, 0),
                        57..=75 => (0, 1),
                        76..=94 => (1, 0),
                        _ => (1, 1),
                    };
                    src = src << 1 | s;
                    dst = dst << 1 | d;
                }
                Edge::new(src, dst)
            })
            .collect();
        EdgeList::new(nv, edges).unwrap()
    }

    /// A seeded batch of `ops` operations on `live`: inserts of random
    /// pairs alternating with deletes of live edges.
    fn mixed_batch(
        live: &EdgeList<Edge>,
        ops: usize,
        seed: u64,
    ) -> crate::layout::DeltaBatch<Edge> {
        use crate::layout::{DeltaBatch, DeltaOp};
        let nv = live.num_vertices() as u64;
        let mut state = seed | 1;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut batch = DeltaBatch::new();
        for i in 0..ops {
            if i % 2 == 0 {
                let (src, dst) = (next(nv) as u32, next(nv) as u32);
                batch.ops.push(DeltaOp::Insert(Edge::new(src, dst)));
            } else {
                let e = live.edges()[next(live.num_edges() as u64) as usize];
                batch.ops.push(DeltaOp::Delete {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
        batch
    }

    /// Sweeps the Jacobi pull kernel took, stopped at the same L1
    /// change, on [`block_sweeps_beat_the_jacobi_count`]'s graph and
    /// batch: the cold solve and the warm one after the batch.
    const JACOBI_COLD_SWEEPS: usize = 52;
    const JACOBI_WARM_SWEEPS: usize = 27;

    #[test]
    fn block_sweeps_beat_the_jacobi_count() {
        use crate::layout::DeltaLog;
        // Scale 14: four blocks. Up to 2^12 vertices fit in one block,
        // which is a Jacobi sweep.
        let base = rmat_graph(14, 8, 42);
        let mut log = DeltaLog::new();
        let (dl, degrees) = delta_view(&base, &log);
        let mut engine = IncrementalPagerank::new(&dl, &degrees, 0.85);
        let cold = engine.sweeps();

        // A 0.2 % batch re-solves warm.
        let batch = mixed_batch(&base, base.num_edges() / 500, 7);
        for op in &batch.ops {
            log.push(*op);
        }
        let (dl, degrees) = delta_view(&base, &log);
        let recorder = crate::telemetry::TraceRecorder::new();
        let ctx = ExecCtx::default().recorder(&recorder);
        assert!(!engine.apply_ctx(&dl, &degrees, &batch, &ctx).fallback);
        let warm = engine.sweeps();
        assert_eq!(recorder.counters()[SWEEPS], warm as f64);
        assert!(
            cold < JACOBI_COLD_SWEEPS && warm < JACOBI_WARM_SWEEPS,
            "cold {cold} (Jacobi {JACOBI_COLD_SWEEPS}), warm {warm} (Jacobi {JACOBI_WARM_SWEEPS})"
        );
    }

    /// A cold solve and ten 0.2 % batches on a graph of three blocks,
    /// the last one part full: `visit` sees the engine after each solve
    /// with the graph it solved and that graph's out-degrees.
    fn ten_batches(mut visit: impl FnMut(&IncrementalPagerank, &EdgeList<Edge>, &[u32])) {
        use crate::layout::DeltaLog;
        let base = test_graph(10_000, 40_000, 21);
        let mut log = DeltaLog::new();
        let (dl, degrees) = delta_view(&base, &log);
        let mut engine = IncrementalPagerank::new(&dl, &degrees, 0.85);
        visit(&engine, &base, &degrees);
        for step in 0..10 {
            let live = log.merge_into(&base);
            let batch = mixed_batch(&live, live.num_edges() / 500, 100 + step);
            for op in &batch.ops {
                log.push(*op);
            }
            let (dl, degrees) = delta_view(&base, &log);
            assert!(!engine.apply(&dl, &degrees, &batch).fallback);
            visit(&engine, &log.merge_into(&base), &degrees);
        }
    }

    /// [`ten_batches`]' ranks (as bits) and sweep counts.
    fn solve_sequence() -> (Vec<Vec<u32>>, Vec<usize>) {
        let (mut ranks, mut sweeps) = (Vec::new(), Vec::new());
        ten_batches(|engine, _, _| {
            ranks.push(engine.ranks.iter().map(|r| r.to_bits()).collect());
            sweeps.push(engine.sweeps());
        });
        (ranks, sweeps)
    }

    #[test]
    fn block_sweeps_are_identical_at_every_pool_width() {
        let one = egraph_parallel::ThreadPool::new(1);
        let (ranks, sweeps) = egraph_parallel::with_pool(&one, solve_sequence);
        for width in [2, 3, 8] {
            let pool = egraph_parallel::ThreadPool::new(width);
            let (r, s) = egraph_parallel::with_pool(&pool, solve_sequence);
            assert_eq!(s, sweeps, "sweep counts at width {width}");
            assert!(r == ranks, "ranks at width {width}");
        }
    }

    #[test]
    fn solves_land_within_the_documented_distance() {
        // `SOLVE_TOLERANCE`'s bound: `d/(1−d)` times the stopping
        // change, in L1.
        let bound = 0.85 / 0.15 * f64::from(SOLVE_TOLERANCE);
        let mut distances = Vec::new();
        ten_batches(|engine, graph, degrees| {
            let want = reference_converged(graph, degrees, 0.85);
            let l1: f64 = (engine.ranks.iter().zip(&want))
                .map(|(&a, &b)| f64::from((a - b).abs()))
                .sum();
            distances.push(l1);
        });
        assert!(
            distances.iter().all(|&d| d <= bound),
            "L1 distances {distances:?} past {bound:e}"
        );
    }
}
