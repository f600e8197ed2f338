//! Vertex relabeling and edge-order shuffling.
//!
//! Vertex ids and edge order both carry locality: generators (and real
//! datasets like DIMACS road files) emit spatially correlated ids in
//! spatially correlated order, which flatters streaming layouts. These
//! utilities destroy either correlation on demand, so experiments can
//! separate "the layout is good" from "the input happened to be
//! friendly" — see the `exp_ablation_ordering` experiment.

use egraph_core::types::{EdgeList, EdgeRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Returns the graph with vertices relabeled by a uniform random
/// permutation (deterministic in `seed`).
pub fn permute_vertices<E: EdgeRecord>(graph: &EdgeList<E>, seed: u64) -> EdgeList<E> {
    let nv = graph.num_vertices();
    let mut relabel: Vec<u32> = (0..nv as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..nv).rev() {
        relabel.swap(i, rng.random_range(0..=i));
    }
    let edges = egraph_parallel::ops::parallel_init(
        graph.num_edges(),
        egraph_parallel::DEFAULT_GRAIN,
        |i| {
            let e = &graph.edges()[i];
            E::new(
                relabel[e.src() as usize],
                relabel[e.dst() as usize],
                e.weight(),
            )
        },
    );
    EdgeList::from_parts_unchecked(nv, edges)
}

/// Returns the graph with its edge array order shuffled (vertex ids
/// unchanged), deterministic in `seed`.
pub fn shuffle_edges<E: EdgeRecord>(graph: &EdgeList<E>, seed: u64) -> EdgeList<E> {
    let mut edges = graph.edges().to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.random_range(0..=i));
    }
    EdgeList::from_parts_unchecked(graph.num_vertices(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::types::Edge;

    fn sample() -> EdgeList<Edge> {
        crate::road_like(20, 10)
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = sample();
        let p = permute_vertices(&g, 7);
        assert_eq!(p.num_vertices(), g.num_vertices());
        assert_eq!(p.num_edges(), g.num_edges());
        // Degree multiset is preserved.
        let mut a = g.out_degrees();
        let mut b = p.out_degrees();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Connectivity is preserved (single component either way).
        use egraph_core::prelude::*;
        let components = |graph: &EdgeList<Edge>| {
            let id: VariantId = "wcc/edge/push".parse().unwrap();
            let prepared = PreparedGraph::new(graph);
            let run = run_variant(&id, &ExecCtx::new(None), &prepared, &RunParams::default());
            run.unwrap().output.as_wcc().unwrap().component_count()
        };
        assert_eq!(components(&g), components(&p));
    }

    #[test]
    fn permutation_changes_labels() {
        let g = sample();
        let p = permute_vertices(&g, 7);
        assert_ne!(g.edges(), p.edges());
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let g = sample();
        let s = shuffle_edges(&g, 3);
        let mut a: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut b: Vec<(u32, u32)> = s.edges().iter().map(|e| (e.src, e.dst)).collect();
        assert_ne!(a, b, "order must change");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "content must not");
    }

    #[test]
    fn deterministic_in_seed() {
        let g = sample();
        assert_eq!(
            permute_vertices(&g, 9).edges(),
            permute_vertices(&g, 9).edges()
        );
        assert_ne!(
            permute_vertices(&g, 9).edges(),
            permute_vertices(&g, 10).edges()
        );
    }
}
