//! Multi-source waves: lane rules on the shared frontier drivers.
//!
//! One wave answers up to [`MAX_WAVE`] point queries with a *single*
//! traversal: every vertex carries one `u64` lane word, one bit per
//! query, so the per-round edge scan (the dominant cost on large
//! graphs) is shared by the whole wave — the cache-sharing thesis of
//! the fork-processing-patterns line of work applied to the paper's
//! push kernels.
//!
//! A wave is an ordinary frontier algorithm whose per-vertex state is a
//! lane word, so this file holds only the two *rules* — [`BfsLanes`]
//! (BFS and k-hop) and [`SsspLanes`] — and no loop: rounds run on
//! `engine::edge_map` over whatever [`EngineLayout`] is resident, which
//! also writes the per-round [`IterStat`] records every batch kernel
//! emits. The frontier of a wave round is the *union* of its lanes'
//! frontiers, and it alone says which sources push: a lane word left
//! standing from an earlier round is never read, so nothing clears it.
//!
//! The answers leave a wave in one pass. BFS levels are stored lane
//! by lane, so each lane's vector *is* its answer; SSSP distances are
//! stored by vertex (a relaxation reads a 64-lane row) and are split
//! into lanes by one sequential pass over blocks of rows.
//!
//! Determinism: the per-lane results are bit-identical to the
//! single-query kernels. BFS levels are exact hop distances (the round
//! a bit first reaches a vertex), independent of scan order; SSSP
//! distances converge to the unique least fixpoint of the relaxation
//! equations under `f32` `fetch_min`, which is order-independent. The
//! conformance tests in this module assert both properties.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use egraph_parallel::atomicf::AtomicF32;

use crate::engine::{self, EngineLayout, FrontierAlgo, PushOnly, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::metrics::IterStat;
use crate::types::{EdgeRecord, VertexId};

/// Lane capacity of one wave: the width of the frontier word.
pub const MAX_WAVE: usize = 64;

/// One wave's state: the bit-packed frontier — bit `q` of a vertex's
/// word says lane `q`'s frontier holds the vertex — plus a rule's
/// per-lane values `V`. `Lanes<V>` is the rule: a [`PushOp`] per `V`,
/// and for every `V` a push-only [`FrontierAlgo`].
pub(crate) struct Lanes<V> {
    lanes: usize,
    /// The running round's frontier words — current for the members
    /// of the round's frontier only; other vertices keep a stale word
    /// no driver reads.
    current: Vec<AtomicU64>,
    /// Bits that reached a vertex during the running round.
    next: Vec<AtomicU64>,
    /// The distinct source vertices.
    seeds: Vec<VertexId>,
    /// Rounds begun.
    round: AtomicU32,
    values: V,
}

/// Multi-source BFS / k-hop: a lane's level at a vertex is the round
/// its bit first arrives, `u32::MAX` where it never does within the
/// depth bound.
pub(crate) type BfsLanes = Lanes<Levels>;

/// Multi-source SSSP: label-correcting relaxation with per-lane `f32`
/// `fetch_min` over `(vertex, lane)`-major tentative distances; a
/// vertex's word holds the lanes whose distance improved last round.
pub(crate) type SsspLanes = Lanes<Vec<AtomicF32>>;

/// `n` atomics, each `init()`.
fn atomics<A>(n: usize, init: impl Fn() -> A) -> Vec<A> {
    (0..n).map(|_| init()).collect()
}

impl<V> Lanes<V> {
    /// One lane per source, each source holding its lanes' bits for the
    /// first round. The serve engine passes distinct sources (its
    /// duplicate queries ride one lane); a direct caller's duplicates
    /// coexist, each lane tracking its own bit.
    ///
    /// `values` holds a wave's large allocations and the caller has
    /// made them before the lane words are made here; `into_lanes`
    /// frees the words before it allocates anything (BFS allocates
    /// nothing there: its level vectors leave as the answers). In that
    /// order the allocator hands the next wave the blocks this wave
    /// freed, where any other order grows the heap by a block every
    /// wave (measured on RMAT-15: 3 ms of page faults per 64-lane
    /// wave).
    fn with_values(nv: usize, sources: &[VertexId], values: V) -> Self {
        let lanes = sources.len();
        assert!(
            (1..=MAX_WAVE).contains(&lanes),
            "wave size {lanes} outside 1..={MAX_WAVE}"
        );
        let next = atomics(nv, || AtomicU64::new(0));
        let mut seeds = Vec::with_capacity(lanes);
        for (q, &s) in sources.iter().enumerate() {
            assert!((s as usize) < nv, "source {s} out of range ({nv} vertices)");
            if next[s as usize].fetch_or(1 << q, Ordering::Relaxed) == 0 {
                seeds.push(s);
            }
        }
        Self {
            lanes,
            current: atomics(nv, || AtomicU64::new(0)),
            next,
            seeds,
            round: AtomicU32::new(0),
            values,
        }
    }

    /// Runs the wave over any layout, one `edge_map` push round per
    /// wave round. Levels and distances do not depend on scan order, so
    /// the per-lane results are bit-identical on every layout.
    pub(crate) fn run<E, F, L>(&self, layout: &L, ctx: &ExecCtx<'_>) -> Vec<IterStat>
    where
        E: EdgeRecord,
        L: EngineLayout<E, F>,
        Self: FrontierAlgo<E>,
    {
        let seeds = VertexSubset::from_vec(self.seeds.clone());
        engine::edge_map(layout, seeds, self, PushOnly, ctx)
    }

    #[inline]
    fn word(&self, v: VertexId) -> u64 {
        self.current[v as usize].load(Ordering::Relaxed)
    }

    /// Adds `bits` to `v`'s next-round word; `true` for the first bits
    /// of the round, so each vertex is activated once.
    #[inline]
    fn reach(&self, v: usize, bits: u64) -> bool {
        self.next[v].fetch_or(bits, Ordering::Relaxed) == 0
    }
}

impl<E: EdgeRecord, V> FrontierAlgo<E> for Lanes<V>
where
    Self: PushOp<E>,
{
    // `reach` reports a vertex once per round: no dedup.
    const PUSH_NEXT: FrontierKind = FrontierKind::Sparse;

    /// Moves each frontier member's `next` word to `current`.
    fn begin_round(&self, frontier: &VertexSubset) {
        self.round.fetch_add(1, Ordering::Relaxed);
        frontier.for_each(|v| {
            let word = self.next[v as usize].swap(0, Ordering::Relaxed);
            self.current[v as usize].store(word, Ordering::Relaxed);
        });
    }
}

/// [`BfsLanes`]' values.
pub(crate) struct Levels {
    /// Lanes that have reached each vertex.
    visited: Vec<AtomicU64>,
    /// Lane-major levels: `level[q]` is lane `q`'s answer.
    level: Vec<Vec<AtomicU32>>,
    max_depth: u32,
}

impl BfsLanes {
    /// Lanes from `sources`, cut at `max_depth` rounds (`u32::MAX` for
    /// a full traversal).
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, longer than [`MAX_WAVE`], or
    /// contains a vertex `>= nv` — the serve engine validates queries
    /// before forming waves.
    pub(crate) fn new(nv: usize, sources: &[VertexId], max_depth: u32) -> Self {
        let level = sources
            .iter()
            .map(|_| atomics(nv, || AtomicU32::new(u32::MAX)))
            .collect();
        let visited = atomics(nv, || AtomicU64::new(0));
        let values = Levels {
            visited,
            level,
            max_depth,
        };
        let mut wave = Self::with_values(nv, sources, values);
        for (q, &s) in sources.iter().enumerate() {
            wave.values.visited[s as usize].fetch_or(1 << q, Ordering::Relaxed);
            wave.values.level[q][s as usize].store(0, Ordering::Relaxed);
        }
        if max_depth == 0 {
            wave.seeds.clear();
        }
        wave
    }

    /// One level vector per source: each lane's storage, handed out
    /// as it is (`Vec<AtomicU32>` into `Vec<u32>` reuses the block).
    pub(crate) fn into_lanes(self) -> Vec<Vec<u32>> {
        drop((self.current, self.next, self.values.visited));
        let lane = |levels: Vec<AtomicU32>| levels.into_iter().map(AtomicU32::into_inner).collect();
        self.values.level.into_iter().map(lane).collect()
    }
}

impl<E: EdgeRecord> PushOp<E> for BfsLanes {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let Levels { visited, level, .. } = &self.values;
        let v = e.dst() as usize;
        let prop = self.word(e.src()) & !visited[v].load(Ordering::Relaxed);
        if prop == 0 {
            return false;
        }
        // `fetch_or` admits exactly one winner per (vertex, lane) bit,
        // so each level below is stored once.
        let mut won = prop & !visited[v].fetch_or(prop, Ordering::Relaxed);
        if won == 0 {
            return false;
        }
        let depth = self.round.load(Ordering::Relaxed);
        let first = self.reach(v, won);
        while won != 0 {
            let q = won.trailing_zeros() as usize;
            level[q][v].store(depth, Ordering::Relaxed);
            won &= won - 1;
        }
        // The depth bound lives here, not in the driver: vertices found
        // in the last round are not activated, so a depth-`d` wave runs
        // exactly `d` rounds instead of scanning a frontier whose
        // discoveries nobody wants.
        first && depth < self.values.max_depth
    }
}

/// Rows per block of [`SsspLanes::into_lanes`]: 64 rows of 64 lanes
/// are 16 KiB. Appending row by row instead, one value to each of 64
/// vectors in turn, splits 64 lanes of 32 768 distances in 5–8 ms on
/// a 2-vCPU VM, and blocks of rows in ~2 ms.
const SPLIT_ROWS: usize = 64;

impl SsspLanes {
    /// Lanes from `sources`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`BfsLanes::new`].
    pub(crate) fn new(nv: usize, sources: &[VertexId]) -> Self {
        let dist = atomics(nv * sources.len(), || AtomicF32::new(f32::INFINITY));
        let wave = Self::with_values(nv, sources, dist);
        for (q, &s) in sources.iter().enumerate() {
            wave.values[s as usize * wave.lanes + q].store(0.0, Ordering::Relaxed);
        }
        wave
    }

    /// One distance vector per source (`f32::INFINITY` = unreachable),
    /// split from the rows in one sequential pass: a block of
    /// [`SPLIT_ROWS`] rows stays in L1 while every lane appends its
    /// column of it.
    pub(crate) fn into_lanes(self) -> Vec<Vec<f32>> {
        let Lanes {
            lanes,
            current,
            next,
            values: dist,
            ..
        } = self;
        drop((current, next));
        let nv = dist.len() / lanes;
        let mut out: Vec<Vec<f32>> = (0..lanes).map(|_| Vec::with_capacity(nv)).collect();
        for block in dist.chunks(SPLIT_ROWS * lanes) {
            for (q, lane) in out.iter_mut().enumerate() {
                let rows = block.chunks_exact(lanes);
                lane.extend(rows.map(|row| row[q].load(Ordering::Relaxed)));
            }
        }
        out
    }
}

impl<E: EdgeRecord> PushOp<E> for SsspLanes {
    #[inline]
    fn push(&self, e: &E) -> bool {
        let (lanes, dist) = (self.lanes, &self.values);
        let (u, v) = (e.src() as usize * lanes, e.dst() as usize * lanes);
        let (du, dv) = (&dist[u..u + lanes], &dist[v..v + lanes]);
        let weight = e.weight();
        let mut improved = 0u64;
        let mut active = self.word(e.src());
        while active != 0 {
            let q = active.trailing_zeros() as usize;
            let nd = du[q].load(Ordering::Relaxed) + weight;
            if dv[q].fetch_min(nd, Ordering::Relaxed) {
                improved |= 1 << q;
            }
            active &= active - 1;
        }
        improved != 0 && self.reach(e.dst() as usize, improved)
    }
}

/// Multi-source BFS over any [`EngineLayout`] (uncompressed CSR, ccsr,
/// delta, or a streamed view such as the grid's cells): one lane per
/// source, levels truncated at `max_depth` rounds (pass `u32::MAX` for
/// a full traversal). Returns one level
/// vector per source, `u32::MAX` marking vertices not reached within
/// the depth bound.
///
/// # Panics
///
/// Panics if `sources` is empty, longer than [`MAX_WAVE`], or contains
/// an out-of-range vertex.
pub fn multi_bfs<E: EdgeRecord, F, L: EngineLayout<E, F>>(
    layout: &L,
    sources: &[VertexId],
    max_depth: u32,
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<u32>> {
    let wave = BfsLanes::new(layout.num_vertices(), sources, max_depth);
    wave.run(layout, ctx);
    wave.into_lanes()
}

/// Multi-source SSSP over any [`EngineLayout`]. Returns one distance
/// vector per source (`f32::INFINITY` for unreachable vertices),
/// bit-identical to the single-source kernel.
///
/// # Panics
///
/// Panics under the same conditions as [`multi_bfs`].
pub fn multi_sssp<E: EdgeRecord, F, L: EngineLayout<E, F>>(
    layout: &L,
    sources: &[VertexId],
    ctx: &ExecCtx<'_>,
) -> Vec<Vec<f32>> {
    let wave = SsspLanes::new(layout.num_vertices(), sources);
    wave.run(layout, ctx);
    wave.into_lanes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs, sssp};
    use crate::layout::{AdjacencyList, DeltaList, DeltaLog, DeltaOp, EdgeDirection, VertexLayout};
    use crate::metrics::{Direction, StepMode, SyncMode};
    use crate::preprocess::{CcsrBuilder, CsrBuilder, GridBuilder, Strategy};
    use crate::types::{Edge, EdgeList, WEdge};

    fn ring_with_chords(nv: usize) -> EdgeList<Edge> {
        let mut edges = Vec::new();
        for v in 0..nv as u32 {
            edges.push(Edge::new(v, (v + 1) % nv as u32));
            edges.push(Edge::new(v, (v + 7) % nv as u32));
        }
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

    fn weighted_ring(nv: usize) -> EdgeList<WEdge> {
        let mut edges = Vec::new();
        for v in 0..nv as u32 {
            let w1 = 1.0 + (v % 5) as f32 * 0.25;
            let w2 = 2.0 + (v % 3) as f32 * 0.5;
            edges.push(WEdge::new(v, (v + 1) % nv as u32, w1));
            edges.push(WEdge::new(v, (v + 7) % nv as u32, w2));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    #[test]
    fn multi_bfs_matches_single_query_levels_bit_for_bit() {
        let g = ring_with_chords(300);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let sources: Vec<VertexId> = (0..64).map(|q| (q * 5) % 300).collect();
        let waves = multi_bfs(&adj, &sources, u32::MAX, &ExecCtx::new(None));
        assert_eq!(waves.len(), sources.len());
        for (q, &s) in sources.iter().enumerate() {
            let single = single_bfs(&adj, s);
            assert_eq!(waves[q], single.level, "lane {q} source {s}");
        }
    }

    #[test]
    fn multi_bfs_truncates_at_max_depth() {
        let g = ring_with_chords(100);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = multi_bfs(&adj, &[0, 3], 2, &ExecCtx::new(None));
        for lane in &waves {
            assert!(lane.iter().all(|&l| l == u32::MAX || l <= 2));
            assert!(lane.contains(&1));
        }
        // Depth-2 neighborhood of a degree-2 expander is small.
        let within: usize = waves[0].iter().filter(|&&l| l != u32::MAX).count();
        assert!(within > 1 && within < 100, "{within}");
    }

    #[test]
    fn multi_bfs_handles_duplicate_sources() {
        let g = ring_with_chords(50);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = multi_bfs(&adj, &[7, 7, 7], u32::MAX, &ExecCtx::new(None));
        assert_eq!(waves[0], waves[1]);
        assert_eq!(waves[1], waves[2]);
    }

    #[test]
    fn multi_sssp_handles_duplicate_sources() {
        let g = weighted_ring(60);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let waves = multi_sssp(&adj, &[9, 4, 9, 9], &ExecCtx::new(None));
        let single = single_sssp(&adj, 9);
        assert_eq!(waves[0], single.dist);
        assert_eq!(waves[2], single.dist);
        assert_eq!(waves[3], single.dist);
        assert_eq!(waves[1], single_sssp(&adj, 4).dist);
    }

    #[test]
    fn multi_sssp_matches_single_query_distances_bit_for_bit() {
        let g = weighted_ring(200);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let sources: Vec<VertexId> = (0..32).map(|q| (q * 11) % 200).collect();
        let waves = multi_sssp(&adj, &sources, &ExecCtx::new(None));
        for (q, &s) in sources.iter().enumerate() {
            let single = single_sssp(&adj, s);
            assert_eq!(waves[q], single.dist, "lane {q} source {s}");
        }
    }

    #[test]
    fn a_traced_wave_emits_one_forced_push_record_per_union_frontier() {
        let g = ring_with_chords(64);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let sources = [0, 1, 2, 40];
        let singles: Vec<_> = sources.iter().map(|&s| single_bfs(&adj, s)).collect();
        let recorder = crate::telemetry::TraceRecorder::new();
        let ctx = ExecCtx::new(None).recorder(&recorder);
        multi_bfs(&adj, &sources, u32::MAX, &ctx);
        let records = recorder.iterations();

        // As many rounds as the deepest lane needs on its own.
        let deepest = singles.iter().map(|s| s.iterations.len()).max().unwrap();
        assert_eq!(records.len(), deepest);
        // Round `r` scans the union of the lanes' depth-`r` frontiers.
        for (r, record) in records.iter().map(|it| it.stat).enumerate() {
            let union: Vec<VertexId> = (0..64)
                .filter(|&v| singles.iter().any(|s| s.level[v as usize] == r as u32))
                .collect();
            let degrees: usize = union.iter().map(|&v| adj.out().degree(v)).sum();
            assert_eq!(record.frontier_size, union.len(), "round {r}");
            assert_eq!(record.edges_scanned, degrees, "round {r}");
            assert_eq!(record.decision.observed, degrees + union.len());
            assert!(record.decision.forced && record.mode == StepMode::Push);
        }
    }

    /// Edges leaving the frontiers of a traced wave, summed over its
    /// rounds (an indexed layout scans exactly those).
    fn frontier_edges(run: impl FnOnce(&ExecCtx<'_>)) -> u64 {
        let recorder = crate::telemetry::TraceRecorder::new();
        run(&ExecCtx::new(None).recorder(&recorder));
        let records = recorder.iterations();
        assert!(records.len() > 2);
        records.iter().map(|r| r.stat.edges_scanned as u64).sum()
    }

    /// A lane rule that counts its pushes: every hook forwards to the
    /// wrapped rule, so `edge_map` runs the same rounds.
    struct Counted<'a, R> {
        rule: &'a R,
        pushes: AtomicU64,
    }

    impl<E: EdgeRecord, R: PushOp<E>> PushOp<E> for Counted<'_, R> {
        fn push(&self, e: &E) -> bool {
            self.pushes.fetch_add(1, Ordering::Relaxed);
            self.rule.push(e)
        }
    }

    impl<E: EdgeRecord, R: FrontierAlgo<E>> FrontierAlgo<E> for Counted<'_, R> {
        const PUSH_NEXT: FrontierKind = R::PUSH_NEXT;

        fn begin_round(&self, frontier: &VertexSubset) {
            self.rule.begin_round(frontier);
        }

        fn next_frontier(&self, activated: VertexSubset) -> VertexSubset {
            self.rule.next_frontier(activated)
        }
    }

    /// Edges pushed during `wave`'s run over `layout`, which is
    /// [`Lanes::run`] with the rule wrapped in [`Counted`].
    fn pushed_edges<E, F, L, V>(wave: &Lanes<V>, layout: &L) -> u64
    where
        E: EdgeRecord,
        L: EngineLayout<E, F>,
        Lanes<V>: FrontierAlgo<E>,
    {
        let counted = Counted {
            rule: wave,
            pushes: AtomicU64::new(0),
        };
        let seeds = VertexSubset::from_vec(wave.seeds.clone());
        engine::edge_map(layout, seeds, &counted, PushOnly, &ExecCtx::new(None));
        counted.pushes.into_inner()
    }

    #[test]
    fn a_grid_wave_pushes_only_from_the_running_round_s_frontier() {
        // Source 0 is in the first round's frontier and in no later
        // one, and nothing clears its lane word: were the word what
        // makes a source push, every later scan would push from it again.
        let sources = [0, 3, 150];
        let g = ring_with_chords(300);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let grid = GridBuilder::new(Strategy::CountSort).side(4).build(&g);
        assert_eq!(
            pushed_edges(&BfsLanes::new(300, &sources, u32::MAX), &grid.cells()),
            frontier_edges(|ctx| drop(multi_bfs(&adj, &sources, u32::MAX, ctx))),
        );
        let w = weighted_ring(300);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&w);
        let grid = GridBuilder::new(Strategy::CountSort).side(4).build(&w);
        assert_eq!(
            pushed_edges(&SsspLanes::new(300, &sources), &grid.cells()),
            frontier_edges(|ctx| drop(multi_sssp(&adj, &sources, ctx))),
        );
    }

    #[test]
    fn a_depth_d_wave_runs_exactly_d_rounds_on_adj_and_grid() {
        // Full traversals from these sources take eight rounds or more.
        let g = ring_with_chords(300);
        let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&g);
        let grid = GridBuilder::new(Strategy::CountSort).side(4).build(&g);
        let sources = [0, 3, 150];
        for depth in [0, 1, 3] {
            let recorder = crate::telemetry::TraceRecorder::new();
            let ctx = ExecCtx::new(None).recorder(&recorder);
            let on_adj = multi_bfs(&adj, &sources, depth, &ctx);
            assert_eq!(recorder.iterations().len(), depth as usize, "adj");

            let recorder = crate::telemetry::TraceRecorder::new();
            let ctx = ExecCtx::new(None).recorder(&recorder);
            let rule = BfsLanes::new(300, &sources, depth);
            let log = rule.run(&grid.cells(), &ctx);
            assert_eq!(recorder.iterations().len(), depth as usize, "grid");
            assert_eq!(log.len(), depth as usize, "returned without a recorder too");
            assert!(log.iter().all(|it| it.edges_scanned == g.num_edges()));
            assert_eq!(rule.into_lanes(), on_adj);
        }
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// A chain through every vertex plus `ne` random edges, weighted 0,
    /// 1 or 2: zero-weight edges, and for the single-source kernel at
    /// Δ = 1 every distance on a bucket boundary.
    fn boundary_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<WEdge> {
        let mut state = seed | 1;
        let mut edges: Vec<WEdge> = (0..nv as u32 - 1)
            .map(|v| WEdge::new(v, v + 1, (lcg(&mut state) % 3) as f32))
            .collect();
        for _ in 0..ne {
            let src = (lcg(&mut state) % nv as u64) as u32;
            let dst = (lcg(&mut state) % nv as u64) as u32;
            edges.push(WEdge::new(src, dst, (lcg(&mut state) % 3) as f32));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn unweighted(g: &EdgeList<WEdge>) -> EdgeList<Edge> {
        let edges = g.edges().iter().map(|e| Edge::new(e.src(), e.dst()));
        EdgeList::new(g.num_vertices(), edges.collect()).unwrap()
    }

    /// A delta layout whose base CSR holds `g` minus its last ten edges
    /// plus four edges `g` lacks, and whose log deletes the four and
    /// inserts the ten: it answers for `g` through patched spans.
    fn patched<E: EdgeRecord>(g: &EdgeList<E>, extra: impl Fn(VertexId) -> E) -> DeltaList<E> {
        let (kept, removed) = g.edges().split_at(g.num_edges() - 10);
        let ends = |e: &E| (e.src(), e.dst());
        let missing = |e: &E| !g.edges().iter().any(|f| ends(f) == ends(e));
        let extras: Vec<E> = (0..g.num_vertices() as u32)
            .map(extra)
            .filter(missing)
            .take(4)
            .collect();
        assert_eq!(extras.len(), 4);
        let mut base = kept.to_vec();
        base.extend_from_slice(&extras);
        let base = EdgeList::new(g.num_vertices(), base).unwrap();
        let mut log = DeltaLog::new();
        for e in &extras {
            let (src, dst) = ends(e);
            log.push(DeltaOp::Delete { src, dst });
        }
        for &e in removed {
            log.push(DeltaOp::Insert(e));
        }
        let (out, inc) = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out)
            .build(&base)
            .into_parts();
        DeltaList::new(out, inc, &log)
    }

    /// `n` sources on `nv` vertices where every third lane repeats the
    /// lane before it (a 2-lane wave is one source twice).
    fn wave_sources(n: usize, nv: usize) -> Vec<VertexId> {
        let mut sources = Vec::with_capacity(n);
        for q in 0..n {
            let s = match sources.last() {
                Some(&prev) if q % 3 == 1 => prev,
                _ => (q * 37 % nv) as VertexId,
            };
            sources.push(s);
        }
        sources
    }

    /// What every lane from `source` must equal: the single-query BFS,
    /// that BFS cut at depth 2, and the single-query SSSP.
    struct Single {
        levels: Vec<u32>,
        two_hop: Vec<u32>,
        dist: Vec<f32>,
    }

    fn bits(dist: &[f32]) -> Vec<u32> {
        dist.iter().map(|d| d.to_bits()).collect()
    }

    /// The single-query SSSP from `source` at its derived Δ, checked
    /// against the same kernel at Δ = 1 and Δ = 2: on integer weights
    /// those put distances exactly on bucket boundaries, where a
    /// bucketed run can go wrong.
    fn single_sssp_at_every_width(wadj: &AdjacencyList<WEdge>, source: VertexId) -> Vec<f32> {
        let dist = single_sssp(wadj, source).dist;
        for delta in [1.0, 2.0] {
            let at = sssp::push_impl(wadj, source, delta, &ExecCtx::default());
            assert_eq!(bits(&at.dist), bits(&dist), "source {source}, Δ = {delta}");
        }
        dist
    }

    fn singles(
        adj: &AdjacencyList<Edge>,
        wadj: &AdjacencyList<WEdge>,
        sources: &[VertexId],
    ) -> Vec<Single> {
        let cut = |levels: &[u32]| -> Vec<u32> {
            let cut = |&l: &u32| if l > 2 { u32::MAX } else { l };
            levels.iter().map(cut).collect()
        };
        sources
            .iter()
            .map(|&s| {
                let levels = single_bfs(adj, s).level;
                Single {
                    two_hop: cut(&levels),
                    levels,
                    dist: single_sssp_at_every_width(wadj, s),
                }
            })
            .collect()
    }

    /// Runs BFS, 2-hop and SSSP waves of `sources` on one layout and
    /// compares every lane bit for bit.
    fn assert_lanes_match<FU, FW, LU, LW>(
        what: &str,
        (layout, wlayout): (&LU, &LW),
        sources: &[VertexId],
        want: &[Single],
    ) where
        LU: EngineLayout<Edge, FU>,
        LW: EngineLayout<WEdge, FW>,
    {
        let ctx = ExecCtx::new(None);
        let n = sources.len();
        let bfs = multi_bfs(layout, sources, u32::MAX, &ctx);
        let two_hop = multi_bfs(layout, sources, 2, &ctx);
        let sssp = multi_sssp(wlayout, sources, &ctx);
        let lens = (bfs.len(), two_hop.len(), sssp.len());
        assert_eq!(lens, (n, n, n), "{what}");
        for (q, single) in want.iter().enumerate() {
            assert_eq!(bfs[q], single.levels, "{what} bfs, {n} lanes, lane {q}");
            assert_eq!(
                two_hop[q], single.two_hop,
                "{what} 2-hop, {n} lanes, lane {q}"
            );
            assert_eq!(
                bits(&sssp[q]),
                bits(&single.dist),
                "{what} sssp, {n} lanes, lane {q}"
            );
        }
    }

    #[test]
    fn every_lane_of_1_2_63_and_64_lane_waves_equals_its_single_query_kernel() {
        let nv = 257;
        let w = boundary_graph(nv, 900, 35);
        let u = unweighted(&w);
        let csr = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out);
        let (adj, wadj) = (csr.build(&u), csr.build(&w));
        let ccsr = CcsrBuilder::new(Strategy::CountSort, EdgeDirection::Out);
        let (cc, wcc) = (ccsr.build(&u), ccsr.build(&w));
        let (delta, wdelta) = (
            patched(&u, |v| Edge::new(v, v)),
            patched(&w, |v| WEdge::new(v, v, 1.0)),
        );
        let grid = GridBuilder::new(Strategy::CountSort).side(4);
        let (grid, wgrid) = (grid.build(&u), grid.build(&w));
        for n in [1, 2, 63, 64] {
            let sources = wave_sources(n, nv);
            let want = singles(&adj, &wadj, &sources);
            assert_lanes_match("adj", (&adj, &wadj), &sources, &want);
            assert_lanes_match("ccsr", (&cc, &wcc), &sources, &want);
            assert_lanes_match("delta", (&delta, &wdelta), &sources, &want);
            assert_lanes_match("grid", (&grid.cells(), &wgrid.cells()), &sources, &want);
        }
    }

    #[test]
    fn sssp_lanes_match_the_kernel_across_huge_finite_weights() {
        // An update may insert any finite weight: at Δ = 1 the
        // single-source kernel files a 1e30 distance past every `u64`
        // bucket, and two 3e38 hops overflow to ∞, which is no
        // improvement on an unreached vertex.
        let mut w = boundary_graph(257, 900, 36);
        let mut state = 7;
        let edges: Vec<WEdge> = w
            .edges()
            .iter()
            .map(|e| match lcg(&mut state) % 8 {
                0 => WEdge::new(e.src(), e.dst(), 1e30),
                1 => WEdge::new(e.src(), e.dst(), 3e38),
                _ => *e,
            })
            .collect();
        w = EdgeList::new(257, edges).unwrap();
        let wadj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(&w);
        let wgrid = GridBuilder::new(Strategy::CountSort).side(4).build(&w);
        let sources = wave_sources(64, 257);
        let want: Vec<Vec<f32>> = sources
            .iter()
            .map(|&s| single_sssp_at_every_width(&wadj, s))
            .collect();
        assert!(want.iter().flatten().any(|&d| d >= 1e30 && d.is_finite()));
        let ctx = ExecCtx::new(None);
        let on_adj = multi_sssp(&wadj, &sources, &ctx);
        let on_grid = multi_sssp(&wgrid.cells(), &sources, &ctx);
        for (q, dist) in want.iter().enumerate() {
            assert_eq!(bits(&on_adj[q]), bits(dist), "adj lane {q}");
            assert_eq!(bits(&on_grid[q]), bits(dist), "grid lane {q}");
        }
    }
}
