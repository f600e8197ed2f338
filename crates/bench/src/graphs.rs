//! Scaled dataset constructors matching the paper's Table 1 inputs.

use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};

/// Default seed of all experiment datasets (deterministic runs).
pub const SEED: u64 = 0x2017_a7c1;

/// RMAT-`scale`: `2^scale` vertices, `2^(scale+4)` edges — the paper's
/// RMAT-N convention.
pub fn rmat(scale: u32) -> EdgeList<Edge> {
    egraph_graphgen::rmat(scale, 16, SEED)
}

/// Twitter-shaped graph at the given scale (power-law, edge factor 24).
pub fn twitter_like(scale: u32) -> EdgeList<Edge> {
    egraph_graphgen::twitter_like(scale, SEED)
}

/// US-Road-shaped graph with roughly `2^scale` vertices: a high-aspect
/// lattice (high diameter, degree ≤ 4).
pub fn road_like(scale: u32) -> EdgeList<Edge> {
    // Shuffled edge order: a single thread otherwise chains label/
    // distance updates along the generator's construction order within
    // one pass, converging unrealistically fast (parallel streaming
    // breaks such chains at chunk boundaries).
    shuffled(&road_like_ordered(scale))
}

/// The road-shaped lattice in its natural construction order (strong
/// spatial locality, like a DIMACS `.gr` file's source-grouped arcs).
/// Use this variant for experiments about the *locality* of road edge
/// arrays; use [`road_like`] for convergence-sensitive algorithms.
pub fn road_like_ordered(scale: u32) -> EdgeList<Edge> {
    // Tall 1:4 aspect with row-major ids: the corner-rooted BFS
    // wavefront stays inside a narrow band of consecutive rows, i.e.
    // inside one NUMA partition at a time — the localized road-network
    // wavefront behind the Fig. 10 contention effect.
    let nv = 1usize << scale;
    let width = ((nv as f64 / 4.0).sqrt().max(2.0)) as usize;
    let height = (nv / width).max(2);
    egraph_graphgen::road_like(width, height)
}

/// Netflix-shaped bipartite ratings graph scaled from `scale`
/// (users = 2^scale, items = 2^(scale-5), ~40 ratings/user like
/// Netflix's 100 M / 480 K users ≈ 200 — scaled down to keep ALS fast).
pub fn netflix_like(scale: u32) -> (EdgeList<WEdge>, usize) {
    let users = 1usize << scale;
    let items = (users >> 5).max(16);
    (egraph_graphgen::netflix_like(users, items, 40, SEED), users)
}

/// Deterministically shuffles the edge order of a graph.
///
/// Generators emit edges in construction order (e.g. the road lattice
/// in row-major order), which is artificially friendly to streaming
/// label propagation — a single in-order pass can chain updates across
/// the whole graph. Real edge files have no such ordering; shuffling
/// restores the realistic behaviour.
pub fn shuffled<E: EdgeRecord>(graph: &EdgeList<E>) -> EdgeList<E> {
    let n = graph.num_edges();
    let mut edges = graph.edges().to_vec();
    // Fisher-Yates with a SplitMix64 stream.
    let mut state = SEED;
    for i in (1..n).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        edges.swap(i, (z % (i as u64 + 1)) as usize);
    }
    EdgeList::from_parts_unchecked(graph.num_vertices(), edges)
}

/// Attaches deterministic positive weights to an unweighted graph (for
/// SSSP/SpMV on RMAT/road inputs).
pub fn with_weights(graph: &EdgeList<Edge>) -> EdgeList<WEdge> {
    graph.map_records(|e| {
        let h = (e.src as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(e.dst as u64);
        WEdge::new(e.src, e.dst, 0.25 + ((h >> 40) % 1024) as f32 / 256.0)
    })
}

/// The highest-out-degree vertex — a root from which BFS reaches the
/// giant component of a power-law graph.
pub fn best_root<E: EdgeRecord>(graph: &EdgeList<E>) -> u32 {
    let degrees = graph.out_degrees();
    degrees
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v as u32)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_matches_paper_convention() {
        let g = rmat(10);
        assert_eq!(g.num_vertices(), 1 << 10);
        assert_eq!(g.num_edges(), 1 << 14);
    }

    #[test]
    fn road_is_roughly_scale_sized() {
        let g = road_like(12);
        let nv = g.num_vertices();
        assert!(nv > (1 << 11) && nv <= (1 << 13), "nv = {nv}");
    }

    #[test]
    fn shuffled_road_is_a_permutation_of_ordered() {
        let ordered = road_like_ordered(10);
        let shuffled_g = road_like(10);
        assert_ne!(ordered.edges(), shuffled_g.edges(), "order must differ");
        let mut a: Vec<(u32, u32)> = ordered.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut b: Vec<(u32, u32)> = shuffled_g.edges().iter().map(|e| (e.src, e.dst)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "same multiset");
    }

    #[test]
    fn best_root_has_max_degree() {
        let g = rmat(8);
        let root = best_root(&g);
        let degrees = g.out_degrees();
        assert_eq!(degrees[root as usize], *degrees.iter().max().unwrap());
    }

    #[test]
    fn weights_are_positive() {
        let g = with_weights(&rmat(8));
        assert!(g.edges().iter().all(|e| e.weight > 0.0));
    }
}
