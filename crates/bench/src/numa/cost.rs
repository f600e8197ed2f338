//! The NUMA timing model.
//!
//! Execution on this reproduction's host is single-node, so the timing
//! *consequences* of data placement are derived analytically from the
//! locality matrix recorded during real execution. The model scales a
//! measured single-node algorithm time by a slowdown composed of two
//! effects the paper identifies:
//!
//! 1. **Remote-access latency** — a fraction `remote_fraction` of
//!    metadata accesses pay the cross-socket latency instead of the
//!    local one (§7.1's motivation for partitioning);
//! 2. **Memory-controller contention** — when the traffic of all nodes
//!    concentrates on one node's memory (BFS frontiers live in a single
//!    partition), that controller saturates and every access queues
//!    behind it (§7.2, citing Dashti et al. \[9\]).
//!
//! The slowdown only applies to the memory-bound share of the
//! algorithm's time ([`MemoryBoundness`]); the compute share is
//! placement-independent.
//!
//! ```text
//! latency_factor    = 1 + remote_fraction · (remote_penalty − 1)
//! contention_factor = 1 + (peak_share − 1/nodes)⁺ · (nodes − 1)
//! slowdown          = (1 − m) + m · latency_factor · contention_factor
//! modeled_time      = measured_time · slowdown
//! ```

use super::topology::Topology;

/// Fraction of an algorithm's execution time that stalls on DRAM.
///
/// Graph kernels are famously memory-bound; the presets below reflect
/// the relative compute intensity of the study's algorithms (PageRank
/// does a multiply-accumulate per edge and saturates bandwidth; BFS
/// does almost no arithmetic but its frontier fits caches better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryBoundness(pub f64);

impl MemoryBoundness {
    /// Full-graph iterative kernels (PageRank): almost pure streaming.
    pub const PAGERANK: MemoryBoundness = MemoryBoundness(0.75);
    /// Frontier-driven traversals (BFS, SSSP, WCC).
    pub const TRAVERSAL: MemoryBoundness = MemoryBoundness(0.55);
}

/// Result of applying the model to one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeledTime {
    /// The measured single-node algorithm time, seconds.
    pub base_seconds: f64,
    /// The modeled time on the target topology, seconds.
    pub modeled_seconds: f64,
    /// Latency component of the slowdown.
    pub latency_factor: f64,
    /// Contention component of the slowdown.
    pub contention_factor: f64,
    /// Remote fraction observed in the locality matrix.
    pub remote_fraction: f64,
}

/// The analytic cost model for one machine.
#[derive(Debug, Clone)]
pub struct CostModel {
    topology: Topology,
}

impl CostModel {
    /// Creates a model for `topology`.
    pub fn new(topology: Topology) -> Self {
        Self { topology }
    }

    /// Scales `measured_seconds` (single-node execution) to the modeled
    /// topology, given the locality summary of that execution and the
    /// algorithm's memory boundness: `remote_fraction` of accesses pay
    /// the cross-socket latency and `peak_target_share` of traffic
    /// converges on one memory controller at a time. For phased
    /// algorithms whose hotspot moves between iterations (BFS), pass a
    /// per-iteration-weighted peak share.
    pub fn model_parts(
        &self,
        measured_seconds: f64,
        boundness: MemoryBoundness,
        remote_fraction: f64,
        peak_target_share: f64,
    ) -> ModeledTime {
        let nodes = self.topology.num_nodes as f64;
        let m = boundness.0.clamp(0.0, 1.0);
        let latency_factor = 1.0 + remote_fraction * (self.topology.remote_penalty() - 1.0);
        let even_share = 1.0 / nodes;
        let excess = (peak_target_share - even_share).max(0.0);
        let contention_factor = 1.0 + excess * (nodes - 1.0);
        let slowdown = (1.0 - m) + m * latency_factor * contention_factor;
        ModeledTime {
            base_seconds: measured_seconds,
            modeled_seconds: measured_seconds * slowdown,
            latency_factor,
            contention_factor,
            remote_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numa::locality::LocalityStats;

    /// The model over a whole run's locality matrix.
    fn modeled(
        model: &CostModel,
        seconds: f64,
        boundness: MemoryBoundness,
        stats: &LocalityStats,
    ) -> ModeledTime {
        model.model_parts(
            seconds,
            boundness,
            stats.remote_fraction(),
            stats.peak_target_share(),
        )
    }

    fn uniform_stats(nodes: usize) -> LocalityStats {
        let s = LocalityStats::new(nodes);
        for f in 0..nodes {
            for t in 0..nodes {
                s.record(f, t, 100);
            }
        }
        s
    }

    fn local_stats(nodes: usize) -> LocalityStats {
        let s = LocalityStats::new(nodes);
        for n in 0..nodes {
            s.record(n, n, 100);
        }
        s
    }

    fn hotspot_stats(nodes: usize) -> LocalityStats {
        let s = LocalityStats::new(nodes);
        for f in 0..nodes {
            s.record(f, 0, 100);
        }
        s
    }

    #[test]
    fn local_traffic_on_single_node_is_identity() {
        let one_node = Topology {
            num_nodes: 1,
            ..Topology::machine_a()
        };
        let model = CostModel::new(one_node);
        let t = modeled(&model, 10.0, MemoryBoundness::PAGERANK, &local_stats(1));
        assert!((t.modeled_seconds / t.base_seconds - 1.0).abs() < 1e-12);
        assert_eq!(t.modeled_seconds, 10.0);
    }

    #[test]
    fn numa_aware_beats_interleaved_for_spread_traffic() {
        // The PageRank case of Fig. 9b: NUMA-aware placement (mostly
        // local) must model faster than interleaved (3/4 remote on B).
        let model = CostModel::new(Topology::machine_b());
        let inter = modeled(&model, 10.0, MemoryBoundness::PAGERANK, &uniform_stats(4));
        let aware = modeled(&model, 10.0, MemoryBoundness::PAGERANK, &local_stats(4));
        assert!(inter.modeled_seconds > aware.modeled_seconds * 1.3);
    }

    #[test]
    fn hotspot_contention_punishes_numa_aware_bfs() {
        // The BFS case of Fig. 9a/10: all nodes hammering one target
        // node must model slower than evenly interleaved traffic.
        let model = CostModel::new(Topology::machine_b());
        let inter = modeled(&model, 1.0, MemoryBoundness::TRAVERSAL, &uniform_stats(4));
        let hotspot = modeled(&model, 1.0, MemoryBoundness::TRAVERSAL, &hotspot_stats(4));
        assert!(hotspot.modeled_seconds > inter.modeled_seconds * 1.5);
        assert!(hotspot.contention_factor > 2.0);
    }

    #[test]
    fn machine_b_amplifies_machine_a() {
        // 4 nodes with a bigger remote penalty: both effects larger
        // than machine A's — the paper's "only on large machines".
        let a = CostModel::new(Topology::machine_a());
        let b = CostModel::new(Topology::machine_b());
        let gain_a = {
            let i = modeled(&a, 1.0, MemoryBoundness::PAGERANK, &uniform_stats(2));
            let l = modeled(&a, 1.0, MemoryBoundness::PAGERANK, &local_stats(2));
            i.modeled_seconds / l.modeled_seconds
        };
        let gain_b = {
            let i = modeled(&b, 1.0, MemoryBoundness::PAGERANK, &uniform_stats(4));
            let l = modeled(&b, 1.0, MemoryBoundness::PAGERANK, &local_stats(4));
            i.modeled_seconds / l.modeled_seconds
        };
        assert!(gain_b > gain_a);
    }

    #[test]
    fn boundness_zero_means_no_penalty() {
        let model = CostModel::new(Topology::machine_b());
        let t = modeled(&model, 5.0, MemoryBoundness(0.0), &hotspot_stats(4));
        assert!((t.modeled_seconds / t.base_seconds - 1.0).abs() < 1e-12);
    }
}
