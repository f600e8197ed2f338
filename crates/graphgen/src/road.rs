//! A road-network-shaped generator.
//!
//! The US-Road graph (DIMACS \[1\]) "has a different shape than power-law
//! graphs: it has a high diameter, and all vertices have a small in/out
//! degree" (§2). A 2D lattice with bidirectional edges reproduces both
//! properties: degree ≤ 4 and diameter `width + height − 2`.

use egraph_core::types::{Edge, EdgeList};
use egraph_parallel::ops::parallel_init;

/// Generates a `width × height` lattice with bidirectional edges
/// between 4-neighbors. Vertex `(x, y)` has id `y * width + x`.
///
/// The full US-Road graph is 23.9 M vertices / 58 M edges; a
/// `width × height` lattice has `width · height` vertices and
/// `2·(2·w·h − w − h)` directed edges — pick dimensions to fit.
///
/// # Panics
///
/// Panics if either dimension is zero or the vertex count overflows
/// `u32`.
pub fn road_like(width: usize, height: usize) -> EdgeList<Edge> {
    assert!(
        width > 0 && height > 0,
        "lattice dimensions must be positive"
    );
    let nv = width
        .checked_mul(height)
        .filter(|&n| n <= u32::MAX as usize)
        .expect("lattice vertex count overflows u32 ids");

    // Per-vertex slots: up to 4 outgoing edges (right, left, down, up);
    // count exactly first, then fill in parallel.
    let horizontal = 2 * (width - 1) * height;
    let vertical = 2 * width * (height - 1);
    let ne = horizontal + vertical;

    // Edge i enumerates: rightward edges, leftward, downward, upward.
    let right = (width - 1) * height;
    let left = right;
    let down = width * (height - 1);
    let edges = parallel_init(ne, 1 << 14, |i| {
        if i < right {
            // (x, y) -> (x+1, y), x in 0..width-1
            let y = i / (width - 1);
            let x = i % (width - 1);
            Edge::new((y * width + x) as u32, (y * width + x + 1) as u32)
        } else if i < right + left {
            let j = i - right;
            let y = j / (width - 1);
            let x = j % (width - 1);
            Edge::new((y * width + x + 1) as u32, (y * width + x) as u32)
        } else if i < right + left + down {
            let j = i - right - left;
            let y = j / width;
            let x = j % width;
            Edge::new((y * width + x) as u32, ((y + 1) * width + x) as u32)
        } else {
            let j = i - right - left - down;
            let y = j / width;
            let x = j % width;
            Edge::new(((y + 1) * width + x) as u32, (y * width + x) as u32)
        }
    });
    let _ = nv;
    EdgeList::from_parts_unchecked(width * height, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    #[test]
    fn edge_count_formula() {
        let g = road_like(10, 7);
        assert_eq!(g.num_vertices(), 70);
        assert_eq!(g.num_edges(), 2 * (2 * 10 * 7 - 10 - 7));
    }

    #[test]
    fn degrees_at_most_four() {
        let g = road_like(8, 8);
        let stats = degree_stats(&g);
        assert_eq!(stats.max, 4);
        assert!(stats.zero_fraction == 0.0);
        // Interior vertices have degree 4; average close to 4.
        assert!(stats.avg > 3.0);
    }

    #[test]
    fn is_symmetric() {
        let g = road_like(5, 4);
        let set: std::collections::HashSet<(u32, u32)> =
            g.edges().iter().map(|e| (e.src, e.dst)).collect();
        for e in g.edges() {
            assert!(set.contains(&(e.dst, e.src)), "missing reverse of {e:?}");
        }
    }

    #[test]
    fn high_diameter() {
        // BFS depth from corner to corner is width + height - 2.
        use egraph_core::layout::{EdgeDirection, VertexLayout};
        use egraph_core::preprocess::{CsrBuilder, Strategy};
        let (w, h) = (30, 20);
        let g = road_like(w, h);
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&g);
        let levels = egraph_core::algo::bfs::reference(adj.out(), 0);
        let max_level = levels.iter().filter(|&&l| l != u32::MAX).max().unwrap();
        assert_eq!(*max_level as usize, w + h - 2);
    }

    #[test]
    fn single_row_is_a_path() {
        let g = road_like(5, 1);
        assert_eq!(g.num_edges(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dimension() {
        let _ = road_like(0, 5);
    }
}
