//! Social-network analytics: influencer ranking and community sizes on
//! a Twitter-shaped follower graph.
//!
//! Demonstrates the layouts the paper found best for each phase: a
//! grid (pull, lock free) for the full-graph PageRank, and the raw
//! edge array for the single-shot WCC — plus the end-to-end breakdown
//! that justifies the choices.
//!
//! Run with: `cargo run --release --example social_ranking`

use everything_graph::core::algo::{pagerank, wcc};
use everything_graph::core::prelude::*;
use everything_graph::graphgen;

fn main() {
    let scale = 15;
    let followers = graphgen::twitter_like(scale, 7);
    println!(
        "follower graph: {} users, {} follow edges",
        followers.num_vertices(),
        followers.num_edges()
    );
    if let Some((user, follows)) = followers.max_degree_vertex() {
        println!("most active user: {user} (follows {follows} accounts)");
    }

    // --- Influence ranking: PageRank on a grid, pull mode, no locks
    // (Table 5's best configuration for Twitter-shaped graphs). ---
    let degrees: Vec<u32> = followers.out_degrees().iter().map(|&d| d as u32).collect();
    let side = 16;
    let (grid, pre) = GridBuilder::new(Strategy::RadixSort)
        .side(side) // pull runs over the grid's columns, one owner each
        .build_timed(&followers);
    let ranks = pagerank::grid_pull(&grid, &degrees, pagerank::PagerankConfig::default());
    println!(
        "\ninfluence ranking (grid {side}x{side}, pull, no locks): \
         pre-process {:.3}s + rank {:.3}s",
        pre.seconds, ranks.seconds
    );
    println!("top influencers:");
    for (i, v) in ranks.top_k(5).iter().enumerate() {
        println!(
            "  #{} user {:>8}  rank {:.5}  followers {}",
            i + 1,
            v,
            ranks.ranks[*v as usize],
            followers.in_degrees()[*v as usize]
        );
    }

    // --- Community structure: WCC straight off the edge array (zero
    // pre-processing — the Table 6 winner for low-diameter graphs). ---
    let components = wcc::edge_centric(&followers);
    let mut sizes = std::collections::HashMap::new();
    for &label in &components.label {
        *sizes.entry(label).or_insert(0usize) += 1;
    }
    let mut sizes: Vec<usize> = sizes.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\ncommunities (edge-centric WCC, no pre-processing, {:.3}s):",
        components.algorithm_seconds()
    );
    println!(
        "  {} components; giant component holds {:.1}% of users",
        components.component_count(),
        100.0 * sizes[0] as f64 / followers.num_vertices() as f64
    );
}
