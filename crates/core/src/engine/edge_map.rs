//! The frontier driver — Ligra's `edgeMap` loop.
//!
//! Information flow is a dimension orthogonal to algorithm and layout
//! (§4, §6.1), so the direction of a run is a *policy* handed to one
//! loop, not a property baked into a hand-written copy of it — and
//! which policies a layout and a rule admit is in their types
//! ([`Policy`]): [`PushOnly`] for any pair, the run-time [`Direction`]
//! only for a [`PullLayout`] with a [`PullAlgo`].
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
//!
//! **A small round runs where it is decided.** A push round on an
//! indexed layout whose load was taken this round and is at most
//! [`INLINE_GRAIN`] runs on the calling thread
//! ([`egraph_parallel::run_inline`]): its `begin_round`, the layout's
//! push and the collection of its successor open no parallel region.
//! It collects sparsely; a rule that collects densely gets that list
//! sorted and deduplicated — the id-ordered set its bitmap would have
//! listed — so answers and records do not change.

use std::convert::Infallible;

use super::{EngineLayout, PullLayout, PullOp, PushOp, INLINE_ROUNDS};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::metrics::{
    direction_cutoff, frontier_density, timed, Direction, DirectionDecision, IterStat, StepMode,
};
use crate::types::EdgeRecord;
use crate::util::AtomicBitmap;

/// The largest observed load (frontier out-edges + frontier vertices)
/// of a push round that [`edge_map`] runs on the calling thread. Below
/// it a parallel region's wake-up costs more than splitting the round
/// saves; DESIGN.md §3.4 has the sweep it was read from.
pub const INLINE_GRAIN: usize = 4096;

/// What a frontier algorithm hands [`edge_map`]: its state *is* the
/// push rule, and the hooks below are all it says about rounds. A rule
/// that can also pull says so by implementing [`PullAlgo`].
pub trait FrontierAlgo<E: EdgeRecord>: PushOp<E> {
    /// How push rounds collect the next frontier: `Sparse` when the
    /// push rule activates each vertex at most once (BFS claims),
    /// `Dense` when a vertex may improve several times in one round
    /// (label and distance relaxations). Scanning layouts collect
    /// densely either way; a round under [`INLINE_GRAIN`] collects
    /// sparsely either way, deduplicating a `Dense` rule's list.
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
}

/// A frontier algorithm that can also pull: it builds the pull rule of
/// a round from that round's frontier bitmaps. Of the study's rules
/// only BFS does; a push-only rule (locked BFS, union-find, bucketed
/// SSSP, the serve tier's lane rules) simply does not implement this,
/// and [`edge_map`] then accepts no policy that could pull.
pub trait PullAlgo<E: EdgeRecord>: FrontierAlgo<E> {
    /// The pull rule of one round.
    type Pull<'a>: PullOp<E>
    where
        Self: 'a;

    /// The pull rule for a round whose frontier is `in_frontier`;
    /// vertices it changes are marked in `activated`.
    fn pull_op<'a>(
        &'a self,
        in_frontier: &'a AtomicBitmap,
        activated: &'a AtomicBitmap,
    ) -> Self::Pull<'a>;
}

/// What a [`Policy`] asks of a run's rounds. `P` is the policy's
/// evidence that a round *can* pull ([`Policy::CanPull`]): the pulling
/// arms carry one, so for a push-only policy they cannot be built.
#[derive(Debug, Clone, Copy)]
pub enum Flow<P> {
    /// Every round pushes.
    Push,
    /// Every round pulls.
    Pull(P),
    /// Each round compares its load with the Ligra `|E| / 20` cutoff.
    PushPull(P),
}

/// The direction policy of a run of rule `A` over layout `L` — the
/// `policy` argument of [`edge_map`]. Capability is in the impls: the
/// run-time [`Direction`] is a policy only where `L: PullLayout` and
/// `A: PullAlgo`; [`PushOnly`] is one for every pair.
pub trait Policy<E: EdgeRecord, F, L, A>: Copy {
    /// Evidence that a round can pull: `()` for a pull-capable pair,
    /// uninhabited for a push-only policy.
    type CanPull: Copy;

    /// The direction(s) this run takes.
    fn flow(self) -> Flow<Self::CanPull>;

    /// One pull round from the frontier `in_frontier`, marking the
    /// vertices it changes in `activated`.
    fn pull_round(
        can: Self::CanPull,
        layout: &L,
        algo: &A,
        in_frontier: &AtomicBitmap,
        activated: &AtomicBitmap,
        ctx: &ExecCtx<'_>,
    ) -> VertexSubset;
}

/// The policy of a run that only ever pushes — the only one a
/// push-only rule or a layout without a pull side accepts. Its pull
/// step is uninhabited, so no pull round exists to reach.
#[derive(Debug, Clone, Copy)]
pub struct PushOnly;

impl<E: EdgeRecord, F, L: EngineLayout<E, F>, A: FrontierAlgo<E>> Policy<E, F, L, A> for PushOnly {
    type CanPull = Infallible;

    #[inline]
    fn flow(self) -> Flow<Infallible> {
        Flow::Push
    }

    fn pull_round(
        can: Infallible,
        _: &L,
        _: &A,
        _: &AtomicBitmap,
        _: &AtomicBitmap,
        _: &ExecCtx<'_>,
    ) -> VertexSubset {
        match can {}
    }
}

/// [`Direction::Push`] and [`Direction::Pull`] force every round (the
/// comparison against the cutoff is still logged as the
/// counterfactual), [`Direction::PushPull`] lets the comparison choose
/// per round.
impl<E: EdgeRecord, F, L: PullLayout<E, F>, A: PullAlgo<E>> Policy<E, F, L, A> for Direction {
    type CanPull = ();

    #[inline]
    fn flow(self) -> Flow<()> {
        match self {
            Direction::Push => Flow::Push,
            Direction::Pull => Flow::Pull(()),
            Direction::PushPull => Flow::PushPull(()),
        }
    }

    fn pull_round(
        (): (),
        layout: &L,
        algo: &A,
        in_frontier: &AtomicBitmap,
        activated: &AtomicBitmap,
        ctx: &ExecCtx<'_>,
    ) -> VertexSubset {
        let op = algo.pull_op(in_frontier, activated);
        layout.pull_round(&op, ctx, FrontierKind::Dense)
    }
}

/// Appends `stat` to the run's iteration log and mirrors it to the
/// context's recorder. Every round of [`edge_map`] comes through here;
/// so does a pass that is not a frontier round (union-find WCC's label
/// pass over the vertices).
pub(crate) fn record_iter(ctx: &ExecCtx<'_>, iterations: &mut Vec<IterStat>, stat: IterStat) {
    if ctx.recorder.enabled() {
        ctx.recorder.record_iteration(iterations.len(), &stat);
    }
    iterations.push(stat);
}

/// Runs `algo` from `frontier` until no vertex is active and returns
/// the per-iteration log.
///
/// `policy` is the run's direction, and what it may be is decided by
/// the types (see [`Policy`]): [`PushOnly`] on any layout with any
/// rule, a [`Direction`] only where the layout is a [`PullLayout`] and
/// the rule a [`PullAlgo`]. Forced pull never touches the out-direction
/// and forced push never the in-direction, so single-direction layouts
/// run.
///
/// Statically dispatched over layout, rule and policy, and no more work
/// per round than a hand-written loop: forced directions over a dense
/// frontier skip the degree reduction (see the module docs).
///
/// # Examples
///
/// A custom rule is its per-edge push plus how activations are
/// collected — reachability in ten lines. That much runs under
/// [`PushOnly`] on every layout; the pull half below it makes the rule a
/// [`PullAlgo`], which a run-time [`Direction`] needs:
///
/// ```
/// use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
/// use egraph_core::engine::{edge_map, FrontierAlgo, PullAlgo, PullOp, PushOnly, PushOp};
/// use egraph_core::exec::ExecCtx;
/// use egraph_core::frontier::{FrontierKind, VertexSubset};
/// use egraph_core::layout::EdgeDirection;
/// use egraph_core::metrics::Direction;
/// use egraph_core::preprocess::{CsrBuilder, Strategy};
/// use egraph_core::types::{Edge, EdgeList, EdgeRecord, VertexId};
/// use egraph_core::util::AtomicBitmap;
///
/// struct Reach(Vec<AtomicBool>);
/// impl PushOp<Edge> for Reach {
///     fn push(&self, e: &Edge) -> bool {
///         !self.0[e.dst() as usize].swap(true, Relaxed)
///     }
/// }
/// impl FrontierAlgo<Edge> for Reach {
///     const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;
/// }
///
/// // The pull half: an unreached vertex looks for a frontier in-neighbor.
/// struct ReachPull<'a> {
///     seen: &'a [AtomicBool],
///     frontier: &'a AtomicBitmap,
///     activated: &'a AtomicBitmap,
/// }
/// impl PullOp<Edge> for ReachPull<'_> {
///     fn wants_pull(&self, v: VertexId) -> bool {
///         !self.seen[v as usize].load(Relaxed)
///     }
///     fn pull(&self, v: VertexId, e: &Edge) -> bool {
///         let hit = self.frontier.get(e.src() as usize);
///         if hit {
///             self.seen[v as usize].store(true, Relaxed);
///             self.activated.set(v as usize);
///         }
///         hit
///     }
///     fn activated(&self, v: VertexId) -> bool {
///         self.activated.get(v as usize)
///     }
/// }
/// impl PullAlgo<Edge> for Reach {
///     type Pull<'a> = ReachPull<'a>;
///     fn pull_op<'a>(&'a self, frontier: &'a AtomicBitmap, activated: &'a AtomicBitmap) -> ReachPull<'a> {
///         ReachPull { seen: &self.0, frontier, activated }
///     }
/// }
///
/// let edges = EdgeList::new(4, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
/// let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&edges);
/// let reach = || Reach((0..4).map(|v| AtomicBool::new(v == 0)).collect());
/// let (seed, ctx) = (|| VertexSubset::single(0), ExecCtx::default());
/// let rounds = edge_map(&adj, seed(), &reach(), Direction::PushPull, &ctx);
/// assert_eq!(rounds.len(), 3);
/// // The edge array has no pull side: push-only, same rule, same rounds.
/// let rule = reach();
/// assert_eq!(edge_map(&edges, seed(), &rule, PushOnly, &ctx).len(), 3);
/// let seen: Vec<bool> = rule.0.iter().map(|s| s.load(Relaxed)).collect();
/// assert_eq!(seen, [true, true, true, false]);
/// ```
///
/// What is wrong does not compile. The edge array is no [`PullLayout`],
/// so the first call with `&edges` in place of `&adj` is rejected:
///
/// ```compile_fail,E0277
/// # use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
/// # use egraph_core::engine::{edge_map, FrontierAlgo, PullAlgo, PullOp, PushOnly, PushOp};
/// # use egraph_core::exec::ExecCtx;
/// # use egraph_core::frontier::{FrontierKind, VertexSubset};
/// # use egraph_core::layout::EdgeDirection;
/// # use egraph_core::metrics::Direction;
/// # use egraph_core::preprocess::{CsrBuilder, Strategy};
/// # use egraph_core::types::{Edge, EdgeList, EdgeRecord, VertexId};
/// # use egraph_core::util::AtomicBitmap;
/// #
/// # struct Reach(Vec<AtomicBool>);
/// # impl PushOp<Edge> for Reach {
/// #     fn push(&self, e: &Edge) -> bool {
/// #         !self.0[e.dst() as usize].swap(true, Relaxed)
/// #     }
/// # }
/// # impl FrontierAlgo<Edge> for Reach {
/// #     const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;
/// # }
/// #
/// # struct ReachPull<'a> {
/// #     seen: &'a [AtomicBool],
/// #     frontier: &'a AtomicBitmap,
/// #     activated: &'a AtomicBitmap,
/// # }
/// # impl PullOp<Edge> for ReachPull<'_> {
/// #     fn wants_pull(&self, v: VertexId) -> bool {
/// #         !self.seen[v as usize].load(Relaxed)
/// #     }
/// #     fn pull(&self, v: VertexId, e: &Edge) -> bool {
/// #         let hit = self.frontier.get(e.src() as usize);
/// #         if hit {
/// #             self.seen[v as usize].store(true, Relaxed);
/// #             self.activated.set(v as usize);
/// #         }
/// #         hit
/// #     }
/// #     fn activated(&self, v: VertexId) -> bool {
/// #         self.activated.get(v as usize)
/// #     }
/// # }
/// # impl PullAlgo<Edge> for Reach {
/// #     type Pull<'a> = ReachPull<'a>;
/// #     fn pull_op<'a>(&'a self, frontier: &'a AtomicBitmap, activated: &'a AtomicBitmap) -> ReachPull<'a> {
/// #         ReachPull { seen: &self.0, frontier, activated }
/// #     }
/// # }
/// #
/// # let edges = EdgeList::new(4, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
/// # let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&edges);
/// # let reach = || Reach((0..4).map(|v| AtomicBool::new(v == 0)).collect());
/// # let (seed, ctx) = (|| VertexSubset::single(0), ExecCtx::default());
/// let rounds = edge_map(&edges, seed(), &reach(), Direction::PushPull, &ctx);
/// ```
///
/// And a rule without the pull half (bucketed SSSP, union-find, the
/// serve tier's lane rules) is no [`PullAlgo`], so the same call is
/// rejected for the rule:
///
/// ```compile_fail,E0277
/// # use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
/// # use egraph_core::engine::{edge_map, FrontierAlgo, PushOnly, PushOp};
/// # use egraph_core::exec::ExecCtx;
/// # use egraph_core::frontier::{FrontierKind, VertexSubset};
/// # use egraph_core::layout::EdgeDirection;
/// # use egraph_core::metrics::Direction;
/// # use egraph_core::preprocess::{CsrBuilder, Strategy};
/// # use egraph_core::types::{Edge, EdgeList, EdgeRecord, VertexId};
/// # use egraph_core::util::AtomicBitmap;
/// #
/// # struct Reach(Vec<AtomicBool>);
/// # impl PushOp<Edge> for Reach {
/// #     fn push(&self, e: &Edge) -> bool {
/// #         !self.0[e.dst() as usize].swap(true, Relaxed)
/// #     }
/// # }
/// # impl FrontierAlgo<Edge> for Reach {
/// #     const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;
/// # }
/// #
/// # let edges = EdgeList::new(4, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
/// # let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&edges);
/// # let reach = || Reach((0..4).map(|v| AtomicBool::new(v == 0)).collect());
/// # let (seed, ctx) = (|| VertexSubset::single(0), ExecCtx::default());
/// let rounds = edge_map(&adj, seed(), &reach(), Direction::PushPull, &ctx);
/// ```
pub fn edge_map<E, F, L, A, P>(
    layout: &L,
    mut frontier: VertexSubset,
    algo: &A,
    policy: P,
    ctx: &ExecCtx<'_>,
) -> Vec<IterStat>
where
    E: EdgeRecord,
    L: EngineLayout<E, F>,
    A: FrontierAlgo<E>,
    P: Policy<E, F, L, A>,
{
    let nv = layout.num_vertices();
    let num_edges = layout.num_edges();
    let cutoff = direction_cutoff(num_edges);
    let flow = policy.flow();
    // A scanning round tests a dense frontier once per edge, so it is
    // handed one and collects the next one densely.
    let push_next = if L::SCANS {
        FrontierKind::Dense
    } else {
        A::PUSH_NEXT
    };
    let mut iterations = Vec::new();
    let mut inline_rounds = 0;
    while !frontier.is_empty() {
        if L::SCANS {
            frontier = frontier.into_dense(nv);
        }
        let frontier_size = frontier.len();
        let load_wanted = L::SCANS
            || match flow {
                Flow::PushPull(_) => true,
                // A full frontier (the one pass of union-find WCC) is
                // the whole graph: worth one reduction per run.
                Flow::Push => matches!(frontier, VertexSubset::Sparse(_)) || frontier_size == nv,
                Flow::Pull(_) => false,
            };
        let frontier_edges = if load_wanted {
            layout.push_load(&frontier)
        } else {
            0
        };
        let observed = frontier_edges + frontier_size;
        // The one decision point: `pull` holds the policy's evidence
        // when this round pulls.
        let (decision, pull) = match flow {
            Flow::Push => (DirectionDecision::forced(observed, cutoff), None),
            Flow::Pull(can) => (DirectionDecision::forced(observed, cutoff), Some(can)),
            Flow::PushPull(can) => {
                let decision = DirectionDecision::heuristic(observed, cutoff);
                (decision, decision.says_pull().then_some(can))
            }
        };
        // Only a load taken this round can vouch for the round's size.
        let inline = !L::SCANS && load_wanted && observed <= INLINE_GRAIN;
        let (mode, (next, seconds)) = match pull {
            Some(can) => {
                algo.begin_round(&frontier);
                frontier = frontier.into_dense(nv);
                let VertexSubset::Dense { bitmap, .. } = &frontier else {
                    unreachable!("converted above")
                };
                let activated = AtomicBitmap::new(nv);
                let round = || P::pull_round(can, layout, algo, bitmap, &activated, ctx);
                (StepMode::Pull, timed(round))
            }
            None => {
                // A `|V|`-bit collection would cost an inline round more
                // than its pushes, so it collects sparsely; a rule that
                // collects densely may then list a vertex twice, and gets
                // the id-ordered set its bitmap would have listed.
                let kind = if inline {
                    FrontierKind::Sparse
                } else {
                    push_next
                };
                let round = || {
                    algo.begin_round(&frontier);
                    timed(|| {
                        let mut next = layout.push_round(&frontier, algo, ctx, kind);
                        if let (FrontierKind::Dense, VertexSubset::Sparse(list)) =
                            (push_next, &mut next)
                        {
                            list.sort_unstable();
                            list.dedup();
                        }
                        next
                    })
                };
                inline_rounds += u64::from(inline);
                let round = if inline {
                    egraph_parallel::run_inline(round)
                } else {
                    round()
                };
                (StepMode::Push, round)
            }
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
    if ctx.recorder.enabled() {
        ctx.recorder.record_counter(INLINE_ROUNDS, inline_rounds);
    }
    iterations
}
