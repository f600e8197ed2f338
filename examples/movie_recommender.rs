//! A movie recommender trained with ALS on a Netflix-shaped bipartite
//! ratings graph (§8's machine-learning workload; adjacency lists in
//! pull mode, lock free).
//!
//! Run with: `cargo run --release --example movie_recommender`

use everything_graph::core::algo::als;
use everything_graph::core::prelude::*;
use everything_graph::graphgen;

fn main() {
    let (num_users, num_items) = (4000usize, 300usize);
    let ratings = graphgen::netflix_like(num_users, num_items, 30, 2024);
    println!(
        "ratings graph: {num_users} users x {num_items} movies, {} ratings",
        ratings.num_edges()
    );

    // ALS is active one bipartite side per half-step, so adjacency
    // lists (both directions) are the right layout (Table 6).
    let (adj, pre_s) =
        timed(|| CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&ratings));
    let model = als::als(
        adj.out(),
        adj.incoming(),
        num_users,
        als::AlsConfig {
            rank: 8,
            lambda: 0.1,
            iterations: 8,
        },
    );
    println!(
        "trained in {:.3}s (+{:.3}s pre-processing); RMSE per iteration:",
        model.seconds, pre_s
    );
    for (i, rmse) in model.rmse_history.iter().enumerate() {
        println!("  iteration {}: {:.4}", i + 1, rmse);
    }

    // Recommend: for a user, rank unseen movies by predicted rating.
    let user = 42u32;
    let seen: std::collections::HashSet<u32> =
        adj.out().neighbors(user).iter().map(|e| e.dst).collect();
    let mut candidates: Vec<(u32, f32)> = (0..num_items as u32)
        .map(|i| num_users as u32 + i)
        .filter(|item| !seen.contains(item))
        .map(|item| (item, model.predict(user, item)))
        .collect();
    candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    println!(
        "\nuser {user} has rated {} movies; top recommendations:",
        seen.len()
    );
    for (item, score) in candidates.iter().take(5) {
        println!(
            "  movie {:>4}  predicted rating {:.2}",
            item - num_users as u32,
            score
        );
    }
    let final_rmse = model.rmse_history.last().copied().unwrap_or(f64::NAN);
    assert!(final_rmse < 1.0, "model should fit the planted structure");
}
