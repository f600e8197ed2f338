//! The frontier driver — Ligra's `edgeMap` loop.
//!
//! Information flow is a dimension orthogonal to algorithm and layout
//! (§4, §6.1), so the direction of a run is a *value* handed to one
//! loop, not a property baked into a hand-written copy of it.
//! [`edge_map`] owns every iteration of a frontier algorithm on every
//! [`EngineLayout`]: the load estimate, the [`DirectionDecision`], the
//! sparse/dense frontier conversion, the layout's push or pull round,
//! its timing and the one iteration record. It is the single round loop
//! and the single place a direction is chosen and logged.
//!
//! **The observed load** has one definition for every record (DESIGN.md
//! §17.1): an edge term plus the frontier's vertex count. The edge term
//! is the layout's [`push_load`](EngineLayout::push_load) — the
//! frontier's out-degree sum on an indexed layout, `|E|` on a scanning
//! one — except that an indexed layout omits it for a forced direction
//! over a partial dense frontier, where it would be an O(V) reduction
//! nothing consumes. `edges_scanned` is that same edge term.
//!
//! **The next frontier** is the activated set unless the algorithm says
//! otherwise through [`FrontierAlgo::next_frontier`] — the one hook by
//! which an algorithm orders its work (SSSP's distance buckets) without
//! owning a loop.

use super::{EngineLayout, PullOp, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::metrics::{
    direction_cutoff, frontier_density, timed, Direction, DirectionDecision, IterStat, StepMode,
};
use crate::telemetry::IterRecord;
use crate::types::{EdgeRecord, VertexId};
use crate::util::AtomicBitmap;

/// What a frontier algorithm hands [`edge_map`]: its state *is* the
/// push rule, and it builds the pull rule of a round from that round's
/// frontier bitmaps.
pub(crate) trait FrontierAlgo<E: EdgeRecord>: PushOp<E> {
    /// The pull rule of one round.
    type Pull<'a>: PullOp<E>
    where
        Self: 'a;

    /// How push rounds collect the next frontier: `Sparse` when the
    /// push rule activates each vertex at most once (BFS claims),
    /// `Dense` when a vertex may improve several times in one round
    /// (label and distance relaxations). Scanning layouts collect
    /// densely either way.
    const PUSH_NEXT: FrontierKind;

    /// Called at the start of every round with the frontier the round
    /// is about to scan (BFS advances its depth; the serve tier's lane
    /// rules install that frontier's lane words).
    fn begin_round(&self, _frontier: &VertexSubset) {}

    /// Turns the vertices a round activated into the next round's
    /// frontier; the run ends when it is empty. The default is the
    /// activated set itself. An algorithm that processes vertices in
    /// priority order (bucketed SSSP) files `activated` away and hands
    /// back the members of its lowest non-empty bucket instead — which
    /// must be a function of the activated *sets* alone, so that the
    /// rounds repeat at every thread count.
    fn next_frontier(&self, activated: VertexSubset) -> VertexSubset {
        activated
    }

    /// The pull rule for a round whose frontier is `in_frontier`;
    /// vertices it changes are marked in `activated`.
    fn pull_op<'a>(
        &'a self,
        in_frontier: &'a AtomicBitmap,
        activated: &'a AtomicBitmap,
    ) -> Self::Pull<'a>;
}

/// The [`FrontierAlgo::Pull`] of a push-only algorithm (SSSP, locked
/// BFS). Their callers only ever pass [`Direction::Push`], so no round
/// uses it — which is why the driver stays crate-private: nothing in
/// the types stops an outside caller handing such an algorithm
/// [`Direction::Pull`].
#[derive(Debug)]
pub(crate) struct NoPull;

impl<E: EdgeRecord> PullOp<E> for NoPull {
    fn wants_pull(&self, _dst: VertexId) -> bool {
        false
    }

    fn pull(&self, _dst: VertexId, _e: &E) -> bool {
        true
    }

    fn activated(&self, _dst: VertexId) -> bool {
        false
    }
}

/// Appends `stat` to the run's iteration log and mirrors it to the
/// context's recorder. Every round of [`edge_map`] comes through here;
/// so does a pass that is not a frontier round (union-find WCC's label
/// pass over the vertices).
pub(crate) fn record_iter(ctx: &ExecCtx<'_>, iterations: &mut Vec<IterStat>, stat: IterStat) {
    if ctx.recorder.enabled() {
        ctx.recorder
            .record_iteration(IterRecord::from_stat(iterations.len(), &stat));
    }
    iterations.push(stat);
}

/// Runs `algo` from `frontier` until no vertex is active and returns
/// the per-iteration log.
///
/// `policy` is the run's direction: [`Direction::Push`] and
/// [`Direction::Pull`] force every round (the comparison against the
/// Ligra `|E| / 20` cutoff is still logged as the counterfactual),
/// [`Direction::PushPull`] lets the comparison choose per round.
/// Forced pull never touches the out-direction and forced push never
/// the in-direction, so single-direction layouts run — scanning layouts
/// ([`EngineLayout::SCANS`]) under forced push only.
///
/// Statically dispatched over layout and rule, and no more work per
/// round than a hand-written loop: forced directions over a dense
/// frontier skip the degree reduction (see the module docs).
pub(crate) fn edge_map<E, F, L, A>(
    layout: &L,
    mut frontier: VertexSubset,
    algo: &A,
    policy: Direction,
    ctx: &ExecCtx<'_>,
) -> Vec<IterStat>
where
    E: EdgeRecord,
    L: EngineLayout<E, F>,
    A: FrontierAlgo<E>,
{
    let nv = layout.num_vertices();
    let num_edges = layout.num_edges();
    let cutoff = direction_cutoff(num_edges);
    // A scanning round tests a dense frontier once per edge, so it is
    // handed one and collects the next one densely.
    let push_next = if L::SCANS {
        FrontierKind::Dense
    } else {
        A::PUSH_NEXT
    };
    let mut iterations = Vec::new();
    while !frontier.is_empty() {
        if L::SCANS {
            frontier = frontier.into_dense(nv);
        }
        algo.begin_round(&frontier);
        let frontier_size = frontier.len();
        let load_wanted = L::SCANS
            || match policy {
                Direction::PushPull => true,
                // A full frontier (the one pass of union-find WCC) is
                // the whole graph: worth one reduction per run.
                Direction::Push => {
                    matches!(frontier, VertexSubset::Sparse(_)) || frontier_size == nv
                }
                Direction::Pull => false,
            };
        let frontier_edges = if load_wanted {
            layout.push_load(&frontier)
        } else {
            0
        };
        let observed = frontier_edges + frontier_size;
        let (decision, mode) = match policy {
            Direction::Push => (DirectionDecision::forced(observed, cutoff), StepMode::Push),
            Direction::Pull => (DirectionDecision::forced(observed, cutoff), StepMode::Pull),
            Direction::PushPull => {
                let decision = DirectionDecision::heuristic(observed, cutoff);
                let mode = if decision.says_pull() {
                    StepMode::Pull
                } else {
                    StepMode::Push
                };
                (decision, mode)
            }
        };
        let (next, seconds) = match mode {
            StepMode::Pull => {
                frontier = frontier.into_dense(nv);
                let VertexSubset::Dense { bitmap, .. } = &frontier else {
                    unreachable!("converted above")
                };
                let activated = AtomicBitmap::new(nv);
                let op = algo.pull_op(bitmap, &activated);
                timed(|| layout.pull_round(&op, ctx, FrontierKind::Dense))
            }
            StepMode::Push => timed(|| layout.push_round(&frontier, algo, ctx, push_next)),
        };
        record_iter(
            ctx,
            &mut iterations,
            IterStat {
                frontier_size,
                edges_scanned: frontier_edges,
                seconds,
                mode,
                density: frontier_density(observed, num_edges),
                decision,
            },
        );
        frontier = algo.next_frontier(next);
    }
    iterations
}
