//! Loading a graph from (simulated) storage and overlapping the
//! pre-processing with the transfer — §3.4 made concrete with a real
//! throttled byte stream.
//!
//! The dynamic builder consumes chunks as they arrive, so its work
//! hides behind the I/O; the radix builder must wait for the full
//! array. On a slow medium this flips the winner (Table 3).
//!
//! Run with: `cargo run --release --example loading_pipeline`

use std::time::Instant;

use everything_graph::core::prelude::*;
use everything_graph::graphgen;
use everything_graph::storage::{read_edge_list_chunked, write_edge_list, ThrottledReader};

fn main() {
    // A small graph so the (real!) throttled transfer stays short.
    let graph = graphgen::rmat(13, 16, 9);
    let mut file = Vec::new();
    write_edge_list(&mut file, &graph).expect("in-memory write cannot fail");
    println!(
        "graph: {} edges, file size {:.2} MB",
        graph.num_edges(),
        file.len() as f64 / 1e6
    );

    // Simulated slow medium: 4 MB/s so the demo takes ~a second.
    let bandwidth = 4.0 * 1e6;
    println!(
        "medium: {:.0} MB/s (throttled in-memory stream)\n",
        bandwidth / 1e6
    );

    // --- Approach 1: dynamic building, overlapped with loading. ---
    let start = Instant::now();
    let mut lists: Vec<Vec<Edge>> = vec![Vec::new(); graph.num_vertices()];
    let header =
        read_edge_list_chunked::<Edge, _>(ThrottledReader::new(&file[..], bandwidth), |chunk| {
            // Consume each chunk the moment it arrives.
            for e in chunk {
                lists[e.src as usize].push(*e);
            }
        })
        .expect("valid file");
    let adj_dynamic = AdjacencyList::new(
        Some(Adjacency::from_per_vertex(
            header.num_vertices as usize,
            lists,
            false,
        )),
        None,
    );
    let dynamic_total = start.elapsed().as_secs_f64();
    println!("dynamic (overlapped):  load+build = {dynamic_total:.2}s");

    // --- Approach 2: radix sort, strictly after loading. ---
    let start = Instant::now();
    let mut edges = Vec::with_capacity(graph.num_edges());
    read_edge_list_chunked::<Edge, _>(ThrottledReader::new(&file[..], bandwidth), |chunk| {
        edges.extend_from_slice(chunk)
    })
    .expect("valid file");
    let load_s = start.elapsed().as_secs_f64();
    let loaded = EdgeList::new(graph.num_vertices(), edges).expect("validated above");
    let (adj_radix, pre_s) =
        timed(|| CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&loaded));
    let radix_total = load_s + pre_s;
    println!("radix (sequential):    load {load_s:.2}s + build {pre_s:.3}s = {radix_total:.2}s");

    // Same adjacency either way.
    for v in (0..graph.num_vertices() as u32).step_by(997) {
        let mut a: Vec<u32> = adj_dynamic
            .out()
            .neighbors(v)
            .iter()
            .map(|e| e.dst)
            .collect();
        let mut b: Vec<u32> = adj_radix.out().neighbors(v).iter().map(|e| e.dst).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "builders disagree at vertex {v}");
    }

    println!(
        "\non this slow medium the dynamic approach {} by {:.0}% — §3.5's conclusion.",
        if dynamic_total <= radix_total {
            "wins"
        } else {
            "should win; it lost"
        },
        100.0 * (radix_total - dynamic_total).abs() / radix_total
    );
    println!("(with the input already in memory, radix wins ~5x instead — Table 2.)");
}
