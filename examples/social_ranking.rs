//! Social-network analytics: influencer ranking and community sizes on
//! a Twitter-shaped follower graph.
//!
//! Demonstrates the layouts the paper found best for each phase: a
//! grid (pull, lock free) for the full-graph PageRank, and the raw
//! edge array for the single-shot WCC — plus the end-to-end breakdown
//! that justifies the choices.
//!
//! Run with: `cargo run --release --example social_ranking`

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
    let side = 16;
    // Pull runs over the grid's columns, one owner each.
    let prepared = PreparedGraph::new(&followers).side(side);
    let ctx = ExecCtx::new(None);
    let run = |id: &str| {
        let id: VariantId = id.parse().expect("a variant spec");
        run_variant(&id, &ctx, &prepared, &RunParams::default()).expect("a supported variant")
    };
    let pagerank = run("pagerank/grid/pull");
    let ranks = pagerank.output.as_pagerank().expect("a PageRank run");
    println!(
        "\ninfluence ranking (grid {side}x{side}, pull, no locks): \
         pre-process {:.3}s + rank {:.3}s",
        pagerank.preprocess_seconds, pagerank.algorithm_seconds
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
    let wcc = run("wcc/edge/push");
    let components = wcc.output.as_wcc().expect("a WCC run");
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
