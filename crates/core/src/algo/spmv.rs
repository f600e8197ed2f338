//! Sparse matrix–vector multiplication: `y = A·x` where `A` is the
//! graph's (weighted) adjacency matrix.
//!
//! "SpMV is an algorithm that makes only a single pass over the graph.
//! Here, edge-centric computation produces the best end-to-end result,
//! since the cost of building adjacency lists for vertex-centric
//! execution is not amortized by any gains in algorithm execution
//! time." (§4.2)

use super::{span_sum, Stripes};
use crate::engine::{EngineLayout, PullLayout, PullOp, PushOp};
use crate::exec::ExecCtx;
use crate::frontier::{FrontierKind, VertexSubset};
use crate::layout::{NeighborAccess, OneWay};
use crate::metrics::{timed, IterStat, StepMode};
use crate::types::{EdgeList, EdgeRecord, VertexId};
use crate::util::UnsyncSlice;

/// Reports the single SpMV pass as one iteration record.
fn record_pass(ctx: &ExecCtx<'_>, nv: usize, edges: usize, seconds: f64, mode: StepMode) {
    if ctx.recorder.enabled() {
        // A single full pass: every vertex active, every edge read.
        let stat = IterStat::full_scan(nv, edges, seconds, mode);
        ctx.recorder.record_iteration(0, &stat);
    }
}

/// The result of an SpMV run.
#[derive(Debug, Clone)]
pub struct SpmvResult {
    /// The output vector `y`.
    pub y: Vec<f32>,
    /// Wall-clock seconds of the single pass.
    pub seconds: f64,
}

/// Push rule with plain writes (no locks, no atomics), for layouts
/// whose push rounds own their destinations
/// ([`EngineLayout::DST_EXCLUSIVE`]: grid columns).
struct SpmvPushExclusive<'a> {
    x: &'a [f32],
    y: UnsyncSlice<'a, f32>,
}

impl<E: EdgeRecord> PushOp<E> for SpmvPushExclusive<'_> {
    #[inline]
    fn push(&self, e: &E) -> bool {
        // SAFETY: only used on `DST_EXCLUSIVE` layouts, whose push
        // rounds give this worker exclusive ownership of every
        // destination it sees.
        unsafe {
            self.y.update(e.dst() as usize, |a| {
                *a += e.weight() * self.x[e.src() as usize]
            });
        }
        false
    }
}

/// Edge-centric SpMV: one streaming pass over the edge array into
/// per-worker stripes, then one pass summing them into `y`.
///
/// # Panics
///
/// Panics if `x.len() != edges.num_vertices()`.
pub fn edge_centric<E: EdgeRecord>(edges: &EdgeList<E>, x: &[f32]) -> SpmvResult {
    push_impl(edges, x, &ExecCtx::default())
}

/// Vertex-centric push SpMV over an out-adjacency (the "adj" bar of
/// Fig. 3c — its pre-processing is what never pays off). Runs on any
/// [`NeighborAccess`] out-adjacency (uncompressed CSR or ccsr).
pub fn push<E: EdgeRecord, A: NeighborAccess<E>>(out: &A, x: &[f32]) -> SpmvResult {
    push_impl(&OneWay::out(out), x, &ExecCtx::default())
}

/// Grid SpMV: column-exclusive push with plain writes (no locks, no
/// atomics) — the grid's structural synchronization applied to the
/// single-pass kernel.
pub fn grid<E: EdgeRecord>(grid: &crate::layout::Grid<E>, x: &[f32]) -> SpmvResult {
    push_impl(grid, x, &ExecCtx::default())
}

/// Push SpMV on any layout: one push round from the full vertex set,
/// accumulating into per-worker [`Stripes`] reduced into `y` — or with
/// plain writes into `y` where the layout's rounds own their
/// destinations.
pub(crate) fn push_impl<E: EdgeRecord, F, L: EngineLayout<E, F>>(
    layout: &L,
    x: &[f32],
    ctx: &ExecCtx<'_>,
) -> SpmvResult {
    let nv = layout.num_vertices();
    assert_eq!(x.len(), nv, "input vector length");
    let all = VertexSubset::all(nv);
    let (y, seconds) = if L::DST_EXCLUSIVE {
        let mut y = vec![0.0f32; nv];
        let op = SpmvPushExclusive {
            x,
            y: UnsyncSlice::new(&mut y),
        };
        let (_, seconds) = timed(|| layout.push_round(&all, &op, ctx, FrontierKind::Sparse));
        (y, seconds)
    } else {
        let mut stripes = Stripes::new(nv);
        timed(|| {
            let op = stripes.add(|e: &E| e.weight() * x[e.src() as usize]);
            layout.push_round(&all, &op, ctx, FrontierKind::Sparse);
            stripes.drain()
        })
    };
    record_pass(ctx, nv, layout.num_edges(), seconds, StepMode::Push);
    SpmvResult { y, seconds }
}

/// Vertex-centric pull SpMV over an in-adjacency: each output element
/// is summed by its own vertex — no synchronization at all.
pub fn pull<E: EdgeRecord, A: NeighborAccess<E>>(incoming: &A, x: &[f32]) -> SpmvResult {
    pull_impl(&OneWay::incoming(incoming), x, &ExecCtx::default())
}

/// Pull SpMV on any layout that can pull: one pull round in which each
/// output element has a single writer.
pub(crate) fn pull_impl<E: EdgeRecord, F, L: PullLayout<E, F>>(
    layout: &L,
    x: &[f32],
    ctx: &ExecCtx<'_>,
) -> SpmvResult {
    let nv = layout.num_vertices();
    assert_eq!(x.len(), nv, "input vector length");
    let mut y = vec![0.0f32; nv];
    let (_, seconds) = timed(|| {
        struct SpmvPull<'a> {
            x: &'a [f32],
            y: UnsyncSlice<'a, f32>,
        }
        impl<E: EdgeRecord> PullOp<E> for SpmvPull<'_> {
            #[inline]
            fn wants_pull(&self, _dst: VertexId) -> bool {
                true
            }

            #[inline]
            fn pull(&self, dst: VertexId, e: &E) -> bool {
                // SAFETY: a pull round gives `dst` a single writer.
                unsafe {
                    self.y.update(dst as usize, |a| {
                        *a += e.weight() * self.x[e.src() as usize]
                    });
                }
                false
            }

            #[inline]
            fn pull_span(&self, dst: VertexId, edges: &[E]) -> usize {
                let sum = span_sum(edges, |e| e.weight() * self.x[e.src() as usize]);
                // SAFETY: as in `pull` — single writer per `dst`.
                unsafe {
                    self.y.update(dst as usize, |a| *a += sum);
                }
                edges.len()
            }

            #[inline]
            fn activated(&self, _dst: VertexId) -> bool {
                false
            }
        }
        let op = SpmvPull {
            x,
            y: UnsyncSlice::new(&mut y),
        };
        layout.pull_round(&op, ctx, FrontierKind::Sparse);
    });
    record_pass(ctx, nv, layout.num_edges(), seconds, StepMode::Pull);
    SpmvResult { y, seconds }
}

/// Serial reference SpMV.
pub fn reference<E: EdgeRecord>(edges: &EdgeList<E>, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0.0f32; edges.num_vertices()];
    for e in edges.edges() {
        y[e.dst() as usize] += e.weight() * x[e.src() as usize];
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EdgeDirection;
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::types::WEdge;

    fn test_matrix(nv: usize, ne: usize, seed: u64) -> EdgeList<WEdge> {
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
            edges.push(WEdge::new(src, dst, ((state >> 20) % 16) as f32 / 4.0));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() < 1e-2 * (1.0 + a[i].abs()),
                "y[{i}]: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn all_variants_match_reference() {
        let input = test_matrix(300, 3000, 55);
        let x: Vec<f32> = (0..300).map(|i| (i % 10) as f32 / 3.0).collect();
        let expected = reference(&input, &x);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        let g = crate::preprocess::GridBuilder::new(Strategy::RadixSort)
            .side(4)
            .build(&input);
        assert_close(&edge_centric(&input, &x).y, &expected);
        assert_close(&push(adj.out(), &x).y, &expected);
        assert_close(&pull(adj.incoming(), &x).y, &expected);
        assert_close(&grid(&g, &x).y, &expected);
    }

    #[test]
    fn identity_like_matrix() {
        // Each vertex points at itself with weight 2 => y = 2x.
        let edges: Vec<WEdge> = (0..10u32).map(|v| WEdge::new(v, v, 2.0)).collect();
        let input = EdgeList::new(10, edges).unwrap();
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let y = edge_centric(&input, &x).y;
        for (i, &yi) in y.iter().enumerate() {
            assert_eq!(yi, 2.0 * i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "input vector length")]
    fn rejects_wrong_vector_size() {
        let input = test_matrix(10, 20, 9);
        let _ = edge_centric(&input, &[1.0]);
    }

    #[test]
    fn empty_matrix_gives_zero() {
        let input: EdgeList<WEdge> = EdgeList::new(4, vec![]).unwrap();
        let y = edge_centric(&input, &[1.0; 4]).y;
        assert_eq!(y, vec![0.0; 4]);
    }
}
