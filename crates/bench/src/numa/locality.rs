//! Access-locality accounting.
//!
//! While a partitioned (or interleaved) execution runs, the engine
//! records, for every vertex-metadata access, which node issued it and
//! which node owns the target datum. The resulting node-to-node matrix
//! is the input of the cost model: its off-diagonal mass is remote
//! traffic, and the concentration of its column sums reveals the
//! memory-controller hotspots behind the paper's BFS anomaly (§7.2).

use std::sync::atomic::{AtomicU64, Ordering};

/// A node-to-node access matrix (`from` issues an access to memory
/// owned by `to`).
#[derive(Debug)]
pub struct LocalityStats {
    num_nodes: usize,
    /// Row-major `num_nodes × num_nodes` counters.
    matrix: Vec<AtomicU64>,
}

impl LocalityStats {
    /// Creates a zeroed matrix for a machine with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        let num_nodes = num_nodes.max(1);
        Self {
            num_nodes,
            matrix: (0..num_nodes * num_nodes)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Records `count` accesses issued by node `from` to memory owned
    /// by node `to`.
    #[inline]
    pub fn record(&self, from: usize, to: usize, count: u64) {
        self.matrix[from * self.num_nodes + to].fetch_add(count, Ordering::Relaxed);
    }

    /// Returns the counter for one (from, to) pair.
    pub fn get(&self, from: usize, to: usize) -> u64 {
        self.matrix[from * self.num_nodes + to].load(Ordering::Relaxed)
    }

    /// Total number of recorded accesses.
    pub fn total(&self) -> u64 {
        self.matrix.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Fraction of accesses whose target lives on a different node than
    /// the issuer. Zero when nothing was recorded.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let local: u64 = (0..self.num_nodes).map(|n| self.get(n, n)).sum();
        (total - local) as f64 / total as f64
    }

    /// The largest share of total traffic absorbed by a single target
    /// node — 1/num_nodes for perfectly spread traffic, 1.0 when every
    /// access hits one node's memory controller.
    pub fn peak_target_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0 / self.num_nodes as f64;
        }
        let peak = (0..self.num_nodes)
            .map(|to| {
                (0..self.num_nodes)
                    .map(|from| self.get(from, to))
                    .sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        peak as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_defaults() {
        let s = LocalityStats::new(4);
        assert_eq!(s.total(), 0);
        assert_eq!(s.remote_fraction(), 0.0);
        assert!((s.peak_target_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn remote_fraction_counts_off_diagonal() {
        let s = LocalityStats::new(2);
        s.record(0, 0, 75);
        s.record(0, 1, 25);
        assert_eq!(s.total(), 100);
        assert!((s.remote_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn peak_share_detects_hotspot() {
        let s = LocalityStats::new(4);
        for from in 0..4 {
            s.record(from, 2, 100); // everyone hammers node 2
        }
        assert!((s.peak_target_share() - 1.0).abs() < 1e-12);
        assert!((s.remote_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn spread_traffic_has_min_peak_share() {
        let s = LocalityStats::new(4);
        for from in 0..4 {
            for to in 0..4 {
                s.record(from, to, 10);
            }
        }
        assert!((s.peak_target_share() - 0.25).abs() < 1e-12);
        assert!((s.remote_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn single_node_is_always_local() {
        let s = LocalityStats::new(1);
        s.record(0, 0, 10);
        assert_eq!(s.remote_fraction(), 0.0);
        assert_eq!(s.peak_target_share(), 1.0);
    }
}
