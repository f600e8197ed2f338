//! Vertex-range partitioning primitives.
//!
//! §7.1: "The partitioning scheme divides graph data evenly across NUMA
//! nodes and places related data on the same NUMA node. Partitioning is
//! performed so as to minimize the number of edges whose source and
//! destination vertices are on different NUMA nodes, while still
//! balancing the number of vertices and edges per NUMA node."
//!
//! Following Polymer and Gemini, vertices are split into as many
//! contiguous ranges as there are NUMA nodes, with ranges chosen so
//! each holds roughly the same number of edges; the out-edges of a
//! vertex are colocated with their **target** vertex, which avoids
//! random remote writes during push-style computation.

use std::ops::Range;

/// Splits vertices `0..degrees.len()` into `num_parts` contiguous
/// ranges with approximately equal total degree (edge count), the
/// Polymer/Gemini balance criterion.
///
/// Every range is non-empty as long as there are at least as many
/// vertices as parts; trailing parts may be empty otherwise.
///
/// # Examples
///
/// ```
/// let degrees = vec![8u64, 1, 1, 1, 1, 1, 1, 2];
/// let parts = egraph_bench::numa::edge_balanced_ranges(&degrees, 2);
/// assert_eq!(parts[0].end - parts[0].start + parts[1].end - parts[1].start, 8);
/// ```
pub fn edge_balanced_ranges(degrees: &[u64], num_parts: usize) -> Vec<Range<usize>> {
    let num_parts = num_parts.max(1);
    let n = degrees.len();
    let total: u64 = degrees.iter().sum();
    let mut out = Vec::with_capacity(num_parts);
    let mut start = 0usize;
    let mut consumed = 0u64;
    for p in 0..num_parts {
        if start >= n {
            out.push(n..n);
            continue;
        }
        let parts_left = num_parts - p;
        let vertices_left = n - start;
        if parts_left == 1 {
            out.push(start..n);
            start = n;
            continue;
        }
        // Target: an equal share of the remaining edges, but leave at
        // least one vertex for each remaining part.
        let target = (total - consumed).div_ceil(parts_left as u64);
        let mut end = start;
        let mut sum = 0u64;
        // Leave at least one vertex for each remaining part when supply
        // allows; otherwise this part takes exactly one vertex.
        let max_end = if n - start > parts_left - 1 {
            n - (parts_left - 1)
        } else {
            start + 1
        };
        while end < max_end {
            let d = degrees[end];
            // Stop before overshooting the target badly: include the
            // vertex if that brings us closer to the target.
            if sum >= target || (sum + d > target && target - sum < sum + d - target) {
                break;
            }
            sum += d;
            end += 1;
        }
        if end == start {
            end = start + 1;
            sum = degrees[start];
        }
        let _ = vertices_left;
        consumed += sum;
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(out.len(), num_parts);
    debug_assert_eq!(out.last().map(|r| r.end), Some(n));
    out
}

/// How simulated memory is spread across NUMA nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Pages striped round-robin across all nodes at `stripe`-item
    /// granularity (the paper's interleaved baseline).
    Interleaved {
        /// Items per stripe (e.g. a 4 KiB page worth of metadata).
        stripe: usize,
        /// Number of nodes in the machine.
        num_nodes: usize,
    },
    /// Contiguous item ranges owned by nodes (`ranges[node]`), the
    /// NUMA-aware layout produced by the partitioner.
    Partitioned(Vec<Range<usize>>),
}

impl Placement {
    /// Creates an interleaved placement with the default 4 KiB-page
    /// stripe expressed in items of `item_size` bytes.
    pub fn interleaved(num_nodes: usize, item_size: usize) -> Self {
        Placement::Interleaved {
            stripe: (4096 / item_size.max(1)).max(1),
            num_nodes: num_nodes.max(1),
        }
    }

    /// Returns which node owns item `index`.
    ///
    /// For partitioned placements, indexes beyond the last range belong
    /// to the last node.
    pub fn owner_of(&self, index: usize) -> usize {
        match self {
            Placement::Interleaved { stripe, num_nodes } => (index / stripe) % num_nodes,
            Placement::Partitioned(ranges) => {
                // Ranges are contiguous and sorted: binary search by end.
                let mut lo = 0usize;
                let mut hi = ranges.len() - 1;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if index < ranges[mid].end {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_balanced_uniform_degrees() {
        let degrees = vec![2u64; 100];
        let parts = edge_balanced_ranges(&degrees, 4);
        for r in &parts {
            assert_eq!(r.len(), 25);
        }
    }

    #[test]
    fn edge_balanced_skewed_degrees() {
        // One hub with half the edges: it should sit alone-ish in its
        // part, with the rest split over the other parts.
        let mut degrees = vec![1u64; 99];
        degrees.insert(0, 99);
        let parts = edge_balanced_ranges(&degrees, 2);
        let sum0: u64 = parts[0].clone().map(|i| degrees[i]).sum();
        let sum1: u64 = parts[1].clone().map(|i| degrees[i]).sum();
        let total = 198u64;
        assert_eq!(sum0 + sum1, total);
        assert!(sum0.abs_diff(sum1) <= degrees[0]);
    }

    #[test]
    fn edge_balanced_covers_everything() {
        let degrees: Vec<u64> = (0..1000).map(|i| (i % 17) as u64).collect();
        for p in [1usize, 2, 4, 7] {
            let parts = edge_balanced_ranges(&degrees, p);
            assert_eq!(parts.len(), p);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, degrees.len());
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn edge_balanced_more_parts_than_vertices() {
        let degrees = vec![5u64, 5];
        let parts = edge_balanced_ranges(&degrees, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.last().unwrap().end, 2);
        let covered: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn interleaved_owner_cycles() {
        let p = Placement::Interleaved {
            stripe: 4,
            num_nodes: 2,
        };
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(3), 0);
        assert_eq!(p.owner_of(4), 1);
        assert_eq!(p.owner_of(8), 0);
    }

    #[test]
    fn partitioned_owner_binary_search() {
        let p = Placement::Partitioned(vec![0..10, 10..15, 15..40]);
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(9), 0);
        assert_eq!(p.owner_of(10), 1);
        assert_eq!(p.owner_of(14), 1);
        assert_eq!(p.owner_of(39), 2);
        assert_eq!(p.owner_of(1000), 2);
    }
}
