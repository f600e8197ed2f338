//! The NUMA model behind the §7 experiments (Fig. 9 and 10): machine
//! topologies, NUMA-aware partitioning, locality accounting and the
//! cost model.
//!
//! The paper evaluates NUMA-awareness on two machines: machine A (2
//! NUMA nodes, 16 cores) and machine B (4 NUMA nodes, 32 cores). The
//! host this reproduction runs on has a single node, so the problem is
//! split the way the paper's analysis does.
//!
//! The **partitioning work is real**: [`partition_by_target`] splits
//! vertices into edge-balanced contiguous ranges (one per NUMA node,
//! [`edge_balanced_ranges`]) and physically groups every edge with the
//! node owning its *target* vertex — the Polymer/Gemini placement that
//! turns push-mode writes into local writes. Its cost is measured with
//! a wall clock and reported as the "Partitioning" bar of Fig. 9/10.
//!
//! The **timing consequences are modeled**: a one-node host cannot time
//! remote accesses, so they are *counted* instead.
//! [`pagerank_locality`] and [`bfs_locality`] replay the exact access
//! pattern of the respective algorithm against a [`Placement`] and
//! produce the node-to-node traffic matrix ([`LocalityStats`]) that
//! [`CostModel`] converts into a modeled slowdown (local vs. remote
//! access latency, and the memory-controller contention that §7.2
//! blames for the BFS slowdowns). Work stealing is modeled by a
//! waterfall ([`waterfall_issue`]): each node first processes the work
//! stored locally, then the overflow of busier nodes is spread over
//! idle ones — which is how a concentrated BFS frontier ends up with
//! every core hammering one memory controller (§7.2).
//!
//! The calibration constants in [`cost`] come from the public
//! latency/bandwidth characteristics of the two machine classes, not
//! from fitting the paper's result figures; see `DESIGN.md` §4.
//!
//! Like the LLC model ([`crate::llc`]), this is a modeled substrate: it
//! lives with the experiments, and the product crates do not link it.
//!
//! # Examples
//!
//! ```
//! use egraph_bench::numa::{edge_balanced_ranges, Topology};
//!
//! let topo = Topology::machine_b();
//! assert_eq!(topo.num_nodes, 4);
//!
//! // Split 8 vertices with skewed degrees into 2 edge-balanced parts.
//! let degrees = vec![100u64, 1, 1, 1, 1, 1, 1, 94];
//! let parts = edge_balanced_ranges(&degrees, 2);
//! assert_eq!(parts.len(), 2);
//! assert_eq!(parts[0], 0..1); // the hub alone balances half the edges
//! ```

pub mod cost;
pub mod locality;
pub mod partition;
pub mod topology;

pub use cost::{CostModel, MemoryBoundness, ModeledTime};
pub use locality::LocalityStats;
pub use partition::{edge_balanced_ranges, Placement};
pub use topology::Topology;

use std::ops::Range;
use std::time::Instant;

use egraph_core::types::{EdgeList, EdgeRecord};

/// The locality summary of one algorithm execution under a placement.
///
/// Besides the aggregate node-to-node matrix, it keeps the
/// **work-weighted peak target share**: the hotspot concentration of
/// each round weighted by that round's traffic. For BFS the aggregate
/// matrix looks balanced (the hotspot moves from partition to partition
/// as the wavefront advances) while at any instant all cores hammer a
/// single controller — the weighted peak captures that (§7.2).
#[derive(Debug)]
pub struct LocalityProfile {
    /// Aggregate access matrix over the whole run.
    pub stats: LocalityStats,
    /// Work-weighted per-round peak target share.
    pub weighted_peak_share: f64,
}

impl LocalityProfile {
    /// Applies a machine cost model to this profile.
    pub fn modeled(
        &self,
        model: &CostModel,
        measured_seconds: f64,
        boundness: MemoryBoundness,
    ) -> ModeledTime {
        model.model_parts(
            measured_seconds,
            boundness,
            self.stats.remote_fraction(),
            self.weighted_peak_share,
        )
    }
}

/// Accumulates per-round matrices into an aggregate plus the
/// work-weighted peak share.
struct ProfileBuilder {
    stats: LocalityStats,
    num_nodes: usize,
    weighted_peak_sum: f64,
    weight_sum: f64,
}

impl ProfileBuilder {
    fn new(num_nodes: usize) -> Self {
        Self {
            stats: LocalityStats::new(num_nodes),
            num_nodes,
            weighted_peak_sum: 0.0,
            weight_sum: 0.0,
        }
    }

    fn add_round(&mut self, round: &LocalityStats) {
        let total = round.total();
        if total == 0 {
            return;
        }
        for from in 0..self.num_nodes {
            for to in 0..self.num_nodes {
                let c = round.get(from, to);
                if c > 0 {
                    self.stats.record(from, to, c);
                }
            }
        }
        self.weighted_peak_sum += round.peak_target_share() * total as f64;
        self.weight_sum += total as f64;
    }

    fn finish(self) -> LocalityProfile {
        let weighted_peak_share = if self.weight_sum == 0.0 {
            1.0 / self.num_nodes as f64
        } else {
            self.weighted_peak_sum / self.weight_sum
        };
        LocalityProfile {
            stats: self.stats,
            weighted_peak_share,
        }
    }
}

/// How the graph data is placed across NUMA nodes (§7.2's comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPolicy {
    /// Pages interleaved round-robin across nodes (the baseline).
    Interleaved,
    /// Polymer/Gemini partitioning: contiguous vertex ranges, edges
    /// colocated with their target vertex.
    NumaAware,
}

/// The result of NUMA-aware partitioning.
#[derive(Debug)]
pub struct NumaPartition<E> {
    /// Vertex ownership ranges, one per node.
    pub vertex_ranges: Vec<Range<usize>>,
    /// Edges grouped by owning node (the owner of their destination).
    pub per_node_edges: Vec<Vec<E>>,
    /// Wall-clock seconds the partitioning took (the pre-processing
    /// the paper charges to NUMA-awareness).
    pub seconds: f64,
}

impl<E: EdgeRecord> NumaPartition<E> {
    /// The placement describing vertex ownership.
    pub fn placement(&self) -> Placement {
        Placement::Partitioned(self.vertex_ranges.clone())
    }

    /// Total edges across all nodes.
    pub fn num_edges(&self) -> usize {
        self.per_node_edges.iter().map(Vec::len).sum()
    }
}

/// Partitions a graph across `num_nodes` NUMA nodes following Polymer
/// and Gemini: vertices split into contiguous edge-balanced ranges,
/// "the outgoing edges of vertices are colocated with their target
/// vertices" (§7.1).
pub fn partition_by_target<E: EdgeRecord>(
    input: &EdgeList<E>,
    num_nodes: usize,
) -> NumaPartition<E> {
    let start = Instant::now();
    let num_nodes = num_nodes.max(1);
    // Balance on in-degree: the edges stored on a node are those
    // targeting its vertices. Per-worker plain histograms (merged at
    // the end) avoid an atomic increment per edge.
    let nv = input.num_vertices();
    let in_degrees = egraph_parallel::parallel_reduce(
        0..input.num_edges(),
        1 << 15,
        || vec![0u64; nv],
        |mut acc, r| {
            for e in &input.edges()[r] {
                acc[e.dst() as usize] += 1;
            }
            acc
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += *y;
            }
            a
        },
    );
    let vertex_ranges = edge_balanced_ranges(&in_degrees, num_nodes);
    // O(1) ownership lookups through a dense owner table.
    let mut owner = vec![0u32; nv];
    for (node, range) in vertex_ranges.iter().enumerate() {
        owner[range.clone()].fill(node as u32);
    }
    // Physically group the edges per owner node: one stable radix
    // partition of the borrowed edge array, split at its offsets.
    let grouped = egraph_sort::radix_partition_by_key(input.edges(), num_nodes, |e| {
        owner[e.dst() as usize] as u64
    });
    let per_node_edges = grouped
        .offsets
        .windows(2)
        .map(|w| grouped.sorted[w[0] as usize..w[1] as usize].to_vec())
        .collect();
    NumaPartition {
        vertex_ranges,
        per_node_edges,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Models which node's threads process each node's stored work.
///
/// Returns `issue[i][s]` — the fraction of node `s`'s stored work
/// executed by threads of node `i`. Every node first runs its local
/// work up to the even-share capacity; overloaded nodes' overflow is
/// distributed over nodes with spare capacity, proportionally to that
/// spare capacity (work stealing).
pub fn waterfall_issue(work: &[u64], num_nodes: usize) -> Vec<Vec<f64>> {
    let total: u64 = work.iter().sum();
    let mut issue = vec![vec![0.0f64; num_nodes]; num_nodes];
    if total == 0 {
        return issue;
    }
    let capacity = total as f64 / num_nodes as f64;
    let mut spare = vec![0.0f64; num_nodes];
    let mut overflow = vec![0.0f64; num_nodes];
    for s in 0..num_nodes {
        let w = work[s] as f64;
        let local = w.min(capacity);
        if w > 0.0 {
            issue[s][s] = local / w;
        }
        overflow[s] = w - local;
        spare[s] = capacity - local;
    }
    let total_spare: f64 = spare.iter().sum();
    if total_spare > 0.0 {
        for s in 0..num_nodes {
            if overflow[s] > 0.0 {
                for i in 0..num_nodes {
                    if spare[i] > 0.0 {
                        // Node i steals its proportional share of s's
                        // overflow.
                        issue[i][s] += (overflow[s] / work[s] as f64) * (spare[i] / total_spare);
                    }
                }
            }
        }
    }
    issue
}

/// Per-storage-node work and read-target distribution of a set of
/// edges under a placement.
struct EdgeTraffic {
    /// `cross[s][t]`: edges stored on node `s` whose source metadata
    /// lives on node `t`.
    cross: Vec<Vec<u64>>,
    /// `work[s]`: total edges stored on node `s`.
    work: Vec<u64>,
}

/// Whether the NUMA-aware policy replicates read-mostly vertex data on
/// every node, as Polymer does ("vertex data replicated across nodes"):
/// random reads then hit the local replica, at the price of a bulk
/// per-iteration refresh that is bandwidth-friendly and negligible next
/// to the random-access traffic modeled here.
const NUMA_AWARE_REPLICATES_READS: bool = true;

fn classify_edges<'a, E: EdgeRecord>(
    edges: impl Iterator<Item = &'a E>,
    storage: &Placement,
    meta: &Placement,
    num_nodes: usize,
) -> EdgeTraffic {
    let mut cross = vec![vec![0u64; num_nodes]; num_nodes];
    let mut work = vec![0u64; num_nodes];
    for (idx, e) in edges.enumerate() {
        let s = match storage {
            // Interleaved edge pages: stripe by edge index.
            Placement::Interleaved { stripe, num_nodes } => (idx / stripe) % num_nodes,
            // NUMA-aware: colocated with the target vertex.
            Placement::Partitioned(_) => storage.owner_of(e.dst() as usize),
        };
        let src_owner = meta.owner_of(e.src() as usize);
        cross[s][src_owner] += 1;
        work[s] += 1;
    }
    EdgeTraffic { cross, work }
}

/// Fixed-point scale used when folding fractional work-stealing shares
/// into the integer locality counters (only ratios matter downstream).
const COUNT_SCALE: f64 = 4096.0;

/// Accumulates one processing round into the locality matrix: reads of
/// source metadata (per `cross`) plus writes of destination metadata
/// (local to the storage node for NUMA-aware placement, striped for
/// interleaved).
fn accumulate_round(
    stats: &LocalityStats,
    traffic: &EdgeTraffic,
    write_targets_storage: bool,
    num_nodes: usize,
) {
    let issue = waterfall_issue(&traffic.work, num_nodes);
    // The NUMA-aware policy is the one that colocates writes with
    // storage; it is also the one that replicates read-mostly data.
    let replicated_reads = write_targets_storage && NUMA_AWARE_REPLICATES_READS;
    for s in 0..num_nodes {
        if traffic.work[s] == 0 {
            continue;
        }
        for (i, issue_i) in issue.iter().enumerate() {
            let f = issue_i[s];
            if f == 0.0 {
                continue;
            }
            // Reads of source metadata.
            if replicated_reads {
                // Reads hit the issuer's local replica.
                let reads = (f * traffic.work[s] as f64 * COUNT_SCALE).round() as u64;
                if reads > 0 {
                    stats.record(i, i, reads);
                }
            } else {
                for t in 0..num_nodes {
                    let reads = (f * traffic.cross[s][t] as f64 * COUNT_SCALE).round() as u64;
                    if reads > 0 {
                        stats.record(i, t, reads);
                    }
                }
            }
            // Writes of destination metadata.
            let writes = f * traffic.work[s] as f64 * COUNT_SCALE;
            if write_targets_storage {
                let w = writes.round() as u64;
                if w > 0 {
                    stats.record(i, s, w);
                }
            } else {
                // Interleaved destination metadata: uniform spread.
                let per = (writes / num_nodes as f64).round() as u64;
                if per > 0 {
                    for t in 0..num_nodes {
                        stats.record(i, t, per);
                    }
                }
            }
        }
    }
}

fn placements_for<E: EdgeRecord>(
    input: &EdgeList<E>,
    policy: DataPolicy,
    num_nodes: usize,
) -> (Placement, Placement, bool) {
    match policy {
        DataPolicy::Interleaved => (
            Placement::interleaved(num_nodes, std::mem::size_of::<E>()),
            Placement::interleaved(num_nodes, 8),
            false,
        ),
        DataPolicy::NumaAware => {
            let in_degrees = input.in_degrees();
            let ranges = edge_balanced_ranges(&in_degrees, num_nodes);
            (
                Placement::Partitioned(ranges.clone()),
                Placement::Partitioned(ranges),
                true,
            )
        }
    }
}

/// Locality matrix of a PageRank-like computation: every edge is
/// processed once per iteration (one iteration's counts — the matrix
/// scales linearly with iterations, which cancels in the model's
/// ratios).
pub fn pagerank_locality<E: EdgeRecord>(
    input: &EdgeList<E>,
    policy: DataPolicy,
    num_nodes: usize,
) -> LocalityProfile {
    let mut builder = ProfileBuilder::new(num_nodes);
    let round = LocalityStats::new(num_nodes);
    let (storage, meta, writes_local) = placements_for(input, policy, num_nodes);
    let traffic = classify_edges(input.edges().iter(), &storage, &meta, num_nodes);
    accumulate_round(&round, &traffic, writes_local, num_nodes);
    builder.add_round(&round);
    builder.finish()
}

/// Locality matrix of a BFS from `root`: per level, only the edges out
/// of that level's frontier are processed, which concentrates work on
/// few partitions (§7.2's contention effect).
pub fn bfs_locality<E: EdgeRecord>(
    input: &EdgeList<E>,
    root: u32,
    policy: DataPolicy,
    num_nodes: usize,
) -> LocalityProfile {
    let mut builder = ProfileBuilder::new(num_nodes);
    let (storage, meta, writes_local) = placements_for(input, policy, num_nodes);

    // Reference BFS levels (serial, on a temporary adjacency).
    let nv = input.num_vertices();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for e in input.edges() {
        adj[e.src() as usize].push(e.dst());
    }
    let mut level = vec![u32::MAX; nv];
    if nv == 0 {
        return builder.finish();
    }
    level[root as usize] = 0;
    let mut queue = std::collections::VecDeque::from([root]);
    let mut max_level = 0;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u as usize] + 1;
                max_level = max_level.max(level[v as usize]);
                queue.push_back(v);
            }
        }
    }

    // One accumulation round per BFS level.
    for l in 0..=max_level {
        let edges_of_level = input
            .edges()
            .iter()
            .filter(|e| level[e.src() as usize] == l);
        let traffic = classify_edges(edges_of_level, &storage, &meta, num_nodes);
        if traffic.work.iter().sum::<u64>() == 0 {
            continue;
        }
        let round = LocalityStats::new(num_nodes);
        accumulate_round(&round, &traffic, writes_local, num_nodes);
        builder.add_round(&round);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::types::Edge;

    fn random_graph(nv: usize, ne: usize, seed: u64) -> EdgeList<Edge> {
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
            edges.push(Edge::new(src, dst));
        }
        EdgeList::new(nv, edges).unwrap()
    }

    #[test]
    fn partition_conserves_edges_and_covers_vertices() {
        let input = random_graph(1000, 10_000, 3);
        let p = partition_by_target(&input, 4);
        assert_eq!(p.num_edges(), input.num_edges());
        assert_eq!(p.vertex_ranges.len(), 4);
        assert_eq!(p.vertex_ranges[0].start, 0);
        assert_eq!(p.vertex_ranges.last().unwrap().end, 1000);
        // Every edge stored on node s targets a vertex owned by s.
        let placement = p.placement();
        for (node, edges) in p.per_node_edges.iter().enumerate() {
            for e in edges {
                assert_eq!(placement.owner_of(e.dst as usize), node);
            }
        }
    }

    #[test]
    fn partition_balances_edges() {
        let input = random_graph(4000, 40_000, 9);
        let p = partition_by_target(&input, 4);
        let sizes: Vec<usize> = p.per_node_edges.iter().map(Vec::len).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 1.5, "imbalanced: {sizes:?}");
    }

    #[test]
    fn every_edge_is_stored_with_the_owner_of_its_target() {
        // 300 nodes puts owner ids past 255, where a byte-wide owner
        // table wraps.
        let input = egraph_graphgen::rmat(12, 16, 4);
        for nodes in [1usize, 2, 4, 8, 300] {
            let p = partition_by_target(&input, nodes);
            for (n, (range, edges)) in p.vertex_ranges.iter().zip(&p.per_node_edges).enumerate() {
                let strays = edges.iter().filter(|e| !range.contains(&(e.dst as usize)));
                assert_eq!(strays.count(), 0, "node {n} of {nodes}");
                // The partition is stable: a node keeps its edges in
                // input order.
                let expected: Vec<Edge> = input
                    .edges()
                    .iter()
                    .copied()
                    .filter(|e| range.contains(&(e.dst as usize)))
                    .collect();
                assert_eq!(edges, &expected, "node {n} of {nodes}");
            }
        }
    }

    #[test]
    fn waterfall_balanced_work_stays_local() {
        let issue = waterfall_issue(&[100, 100, 100, 100], 4);
        for (i, row) in issue.iter().enumerate() {
            for (s, &f) in row.iter().enumerate() {
                if i == s {
                    assert!((f - 1.0).abs() < 1e-9);
                } else {
                    assert!(f.abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn waterfall_hotspot_spreads_work() {
        let issue = waterfall_issue(&[400, 0, 0, 0], 4);
        // Node 0 keeps its even share; the rest is stolen equally.
        assert!((issue[0][0] - 0.25).abs() < 1e-9);
        for node in issue.iter().skip(1) {
            assert!((node[0] - 0.25).abs() < 1e-9);
        }
        // Everything sums to 1 per storage node with work.
        let total: f64 = (0..4).map(|i| issue[i][0]).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn waterfall_empty_work() {
        let issue = waterfall_issue(&[0, 0], 2);
        assert_eq!(issue, vec![vec![0.0; 2]; 2]);
    }

    #[test]
    fn numa_aware_pagerank_is_more_local_than_interleaved() {
        let input = random_graph(4000, 60_000, 17);
        let aware = pagerank_locality(&input, DataPolicy::NumaAware, 4);
        let inter = pagerank_locality(&input, DataPolicy::Interleaved, 4);
        assert!(
            aware.stats.remote_fraction() < inter.stats.remote_fraction(),
            "aware {} vs interleaved {}",
            aware.stats.remote_fraction(),
            inter.stats.remote_fraction()
        );
        // Interleaved traffic is ~3/4 remote on 4 nodes.
        assert!((inter.stats.remote_fraction() - 0.75).abs() < 0.1);
    }

    #[test]
    fn bfs_on_road_band_concentrates_on_numa_aware() {
        // A tall road-like lattice with row-major ids: the BFS
        // wavefront from a corner is a narrow band of consecutive rows,
        // i.e. it lives inside one vertex partition at a time — the
        // Fig. 10 effect. Interleaved placement stripes those rows over
        // all nodes, spreading the traffic.
        let (w, h) = (64usize, 256usize);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = (y * w + x) as u32;
                if x + 1 < w {
                    edges.push(Edge::new(v, v + 1));
                    edges.push(Edge::new(v + 1, v));
                }
                if y + 1 < h {
                    edges.push(Edge::new(v, v + w as u32));
                    edges.push(Edge::new(v + w as u32, v));
                }
            }
        }
        let input = EdgeList::new(w * h, edges).unwrap();
        let aware = bfs_locality(&input, 0, DataPolicy::NumaAware, 4);
        let inter = bfs_locality(&input, 0, DataPolicy::Interleaved, 4);
        // With replicated reads, the aware hotspot is write traffic:
        // all writes plus the hot node's local reads converge on one
        // controller — modeled per-round peak ≈ 0.6.
        assert!(
            aware.weighted_peak_share > 0.45,
            "aware peak {}",
            aware.weighted_peak_share
        );
        assert!(
            inter.weighted_peak_share + 0.1 < aware.weighted_peak_share,
            "interleaved peak {} vs aware {}",
            inter.weighted_peak_share,
            aware.weighted_peak_share
        );
    }

    #[test]
    fn localities_feed_cost_model_with_expected_ordering() {
        let input = random_graph(4000, 60_000, 23);
        let model = CostModel::new(Topology::machine_b());
        let aware = pagerank_locality(&input, DataPolicy::NumaAware, 4).modeled(
            &model,
            10.0,
            MemoryBoundness::PAGERANK,
        );
        let inter = pagerank_locality(&input, DataPolicy::Interleaved, 4).modeled(
            &model,
            10.0,
            MemoryBoundness::PAGERANK,
        );
        assert!(
            inter.modeled_seconds > aware.modeled_seconds,
            "Fig 9b: NUMA-aware PageRank must model faster on machine B"
        );
    }
}
