//! A Watts–Strogatz small-world generator.
//!
//! Small-world graphs fill the gap between the study's two shapes:
//! like the road graph they have low, uniform degree; like the
//! power-law graphs they have a *low* diameter (the rewired shortcuts).
//! Useful as a control input for the layout ablations: low degree
//! without the high diameter.

use egraph_core::types::{Edge, EdgeList};
use egraph_parallel::ops::parallel_init;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates a Watts–Strogatz small-world graph: a ring of `n`
/// vertices, each connected to its `k` nearest neighbors on each side
/// (so out-degree `2k`), with every edge's endpoint rewired to a
/// uniform random vertex with probability `p`.
///
/// Edges are directed both ways (the graph is symmetric unless
/// rewiring breaks a pair).
///
/// # Panics
///
/// Panics if `n == 0`, `k == 0`, `2k >= n`, or `p` is outside `[0, 1]`.
pub fn small_world(n: usize, k: usize, p: f64, seed: u64) -> EdgeList<Edge> {
    assert!(n > 0, "need at least one vertex");
    assert!(k > 0, "need at least one neighbor per side");
    assert!(2 * k < n, "ring neighbors must be fewer than vertices");
    assert!((0.0..=1.0).contains(&p), "rewire probability in [0, 1]");

    let ne = n * 2 * k;
    let edges = parallel_init(ne, 1 << 14, |i| {
        let v = (i / (2 * k)) as u32;
        let slot = i % (2 * k);
        // Slots 0..k: clockwise offsets 1..=k; slots k..2k: counter-
        // clockwise.
        let offset = (slot % k + 1) as u32;
        let natural = if slot < k {
            (v + offset) % n as u32
        } else {
            (v + n as u32 - offset) % n as u32
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD));
        let dst = if rng.random::<f64>() < p {
            // Rewire to any vertex except self.
            let mut d = rng.random_range(0..n as u32 - 1);
            if d >= v {
                d += 1;
            }
            d
        } else {
            natural
        };
        Edge::new(v, dst)
    });
    EdgeList::from_parts_unchecked(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::layout::{EdgeDirection, VertexLayout};
    use egraph_core::preprocess::{CsrBuilder, Strategy};

    #[test]
    fn shape_without_rewiring_is_a_ring_lattice() {
        let g = small_world(100, 2, 0.0, 1);
        assert_eq!(g.num_edges(), 400);
        let degrees = g.out_degrees();
        assert!(degrees.iter().all(|&d| d == 4));
        // Vertex 0 connects to 1, 2, 99, 98.
        let mut n0: Vec<u32> = g
            .edges()
            .iter()
            .filter(|e| e.src == 0)
            .map(|e| e.dst)
            .collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2, 98, 99]);
    }

    #[test]
    fn rewiring_shrinks_the_diameter() {
        let n = 2000;
        let ring = small_world(n, 2, 0.0, 7);
        let sw = small_world(n, 2, 0.1, 7);
        let eccentricity = |g: &EdgeList<Edge>| {
            let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(g);
            let levels = egraph_core::algo::bfs::reference(adj.out(), 0);
            levels
                .iter()
                .filter(|&&l| l != u32::MAX)
                .max()
                .copied()
                .unwrap()
        };
        let ring_depth = eccentricity(&ring);
        let sw_depth = eccentricity(&sw);
        assert_eq!(ring_depth, (n / 4) as u32, "ring eccentricity is n/(2k)");
        assert!(
            sw_depth < ring_depth / 4,
            "shortcuts must collapse the diameter: {sw_depth} vs {ring_depth}"
        );
    }

    #[test]
    fn deterministic_and_in_range() {
        let a = small_world(500, 3, 0.3, 9);
        let b = small_world(500, 3, 0.3, 9);
        assert_eq!(a.edges(), b.edges());
        assert!(a.edges().iter().all(|e| e.dst < 500 && e.src < 500));
        // Rewired edges never self-loop.
        assert!(a.edges().iter().all(|e| e.src != e.dst));
    }

    #[test]
    #[should_panic(expected = "fewer than vertices")]
    fn rejects_oversized_k() {
        let _ = small_world(10, 5, 0.0, 1);
    }
}
