//! The paper's pull PageRank runs a fixed number of Jacobi power
//! iterations on every layout that can pull. The converging solve of
//! `IncrementalPagerank` sweeps block by block instead; these hashes,
//! taken from the Jacobi kernel before that solve existed, pin that
//! the fixed-count variants still produce the same bits.

use egraph_core::exec::ExecCtx;
use egraph_core::types::{Edge, EdgeList};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, VariantId};
use egraph_parallel::{with_pool, ThreadPool};

/// A seeded random graph: 4 096 vertices, 32 768 edges.
fn graph() -> EdgeList<Edge> {
    let nv = 4096u64;
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let edges = (0..8 * nv)
        .map(|_| Edge::new((next() % nv) as u32, (next() % nv) as u32))
        .collect();
    EdgeList::new(nv as usize, edges).unwrap()
}

/// FNV-1a over the ranks' bits.
fn hash(ranks: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in ranks {
        for b in r.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn fixed_count_pull_ranks_keep_their_bits() {
    let edges = graph();
    let want = [
        ("adj", 0x33c3_83bb_e9bb_dedb),
        ("ccsr", 0x20c7_bd11_22e1_39c9),
        ("delta", 0x33c3_83bb_e9bb_dedb),
        ("grid", 0x9bab_dd9d_421d_513d),
    ];
    for width in [1, 3] {
        let pool = ThreadPool::new(width);
        with_pool(&pool, || {
            let prepared = PreparedGraph::new(&edges);
            for (layout, want) in want {
                let id: VariantId = format!("pagerank/{layout}/pull").parse().unwrap();
                let run = run_variant(&id, &ExecCtx::default(), &prepared, &RunParams::default())
                    .unwrap();
                let ranks = &run.output.as_pagerank().unwrap().ranks;
                assert_eq!(hash(ranks), want, "{id} at width {width}");
            }
        });
    }
}
