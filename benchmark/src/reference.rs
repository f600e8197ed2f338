//! Independent serial reference answers. Nothing here calls into the
//! product's layouts, engine or kernels: the references build their own
//! CSR by counting and run textbook algorithms, so a bug shared by every
//! product variant still shows as a wrong answer.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Level / label value for "not reached".
pub const UNREACHED: u32 = u32::MAX;

/// A serial out-CSR built by counting.
#[derive(Debug, Clone)]
pub struct RefCsr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl RefCsr {
    /// Builds the out-CSR of `(src, dst, weight)` records over
    /// `num_vertices` vertices.
    pub fn new(num_vertices: usize, edges: impl Iterator<Item = (u32, u32, f32)> + Clone) -> Self {
        let mut offsets = vec![0usize; num_vertices + 1];
        for (src, _, _) in edges.clone() {
            offsets[src as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
        }
        let num_edges = offsets[num_vertices];
        let mut targets = vec![0u32; num_edges];
        let mut weights = vec![0f32; num_edges];
        let mut cursor = offsets.clone();
        for (src, dst, w) in edges {
            let slot = &mut cursor[src as usize];
            targets[*slot] = dst;
            weights[*slot] = w;
            *slot += 1;
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn out(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Queue BFS: hop count from `root` per vertex.
    pub fn bfs_levels(&self, root: u32) -> Vec<u32> {
        let mut level = vec![UNREACHED; self.num_vertices()];
        let mut queue = VecDeque::new();
        level[root as usize] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let next = level[u as usize] + 1;
            for &v in &self.targets[self.out(u)] {
                if level[v as usize] == UNREACHED {
                    level[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        level
    }

    /// Binary-heap Dijkstra: `f32` distance from `root` per vertex
    /// (`INFINITY` when unreachable). Path sums are accumulated in
    /// `f32` from the root outwards, as the product's relaxations do;
    /// the harness uses integer-valued weights so the sums are exact
    /// either way.
    pub fn dijkstra(&self, root: u32) -> Vec<f32> {
        let mut dist = vec![f32::INFINITY; self.num_vertices()];
        // Non-negative floats order like their bit patterns.
        let mut heap = BinaryHeap::new();
        dist[root as usize] = 0.0;
        heap.push(Reverse((0f32.to_bits(), root)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let d = f32::from_bits(bits);
            if d > dist[u as usize] {
                continue;
            }
            for i in self.out(u) {
                let v = self.targets[i];
                let candidate = d + self.weights[i];
                if candidate < dist[v as usize] {
                    dist[v as usize] = candidate;
                    heap.push(Reverse((candidate.to_bits(), v)));
                }
            }
        }
        dist
    }

    /// Serial power iteration in `f64` with the product's formulation
    /// (`r = (1-d)/n + d·Σ r_u/deg_u`, uniform start, dangling mass
    /// dropped). Runs `max_iterations` steps, or stops early once the
    /// L1 change drops below `tolerance`.
    pub fn pagerank(&self, damping: f64, max_iterations: usize, tolerance: f64) -> Vec<f64> {
        let n = self.num_vertices();
        let mut ranks = vec![1.0 / n.max(1) as f64; n];
        let base = (1.0 - damping) / n.max(1) as f64;
        for _ in 0..max_iterations {
            let mut acc = vec![0.0f64; n];
            for u in 0..n as u32 {
                let out = self.out(u);
                if out.is_empty() {
                    continue;
                }
                let share = ranks[u as usize] / out.len() as f64;
                for &v in &self.targets[out] {
                    acc[v as usize] += share;
                }
            }
            let mut change = 0.0f64;
            for v in 0..n {
                let next = base + damping * acc[v];
                change += (next - ranks[v]).abs();
                ranks[v] = next;
            }
            if change < tolerance {
                break;
            }
        }
        ranks
    }
}

/// Union-find weakly connected components: each vertex labelled with
/// the smallest vertex id of its component.
pub fn wcc_labels(num_vertices: usize, edges: impl Iterator<Item = (u32, u32)>) -> Vec<u32> {
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand;
            v = grand;
        }
        v
    }
    let mut parent: Vec<u32> = (0..num_vertices as u32).collect();
    for (a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        // Linking towards the smaller root keeps every root the
        // minimum of its component.
        match ra.cmp(&rb) {
            std::cmp::Ordering::Less => parent[rb as usize] = ra,
            std::cmp::Ordering::Greater => parent[ra as usize] = rb,
            std::cmp::Ordering::Equal => {}
        }
    }
    (0..num_vertices as u32)
        .map(|v| find(&mut parent, v))
        .collect()
}

/// BFS levels cut at `depth`: deeper vertices read as unreached.
pub fn truncate_levels(levels: &[u32], depth: u32) -> Vec<u32> {
    levels
        .iter()
        .map(|&l| if l <= depth { l } else { UNREACHED })
        .collect()
}

/// Relative L1 distance `Σ|got − want| / Σ|want|` of a rank vector from
/// its reference.
pub fn relative_l1(got: &[f32], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let diff: f64 = got
        .iter()
        .zip(want)
        .map(|(&g, &w)| (f64::from(g) - w).abs())
        .sum();
    let norm: f64 = want.iter().map(|w| w.abs()).sum();
    diff / norm.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0→1→2→3, 0→2 (weights make the two-hop path cheaper), 4 isolated,
    /// 5↔6 a separate component.
    fn sample() -> RefCsr {
        let edges = [
            (0u32, 1u32, 1.0f32),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (0, 2, 5.0),
            (5, 6, 2.0),
            (6, 5, 2.0),
        ];
        RefCsr::new(7, edges.iter().copied())
    }

    #[test]
    fn bfs_counts_hops() {
        let levels = sample().bfs_levels(0);
        assert_eq!(levels, vec![0, 1, 1, 2, UNREACHED, UNREACHED, UNREACHED]);
        assert_eq!(
            truncate_levels(&levels, 1),
            vec![0, 1, 1, UNREACHED, UNREACHED, UNREACHED, UNREACHED]
        );
    }

    #[test]
    fn dijkstra_prefers_the_cheaper_path() {
        let dist = sample().dijkstra(0);
        assert_eq!(&dist[..4], &[0.0, 1.0, 2.0, 3.0]);
        assert!(dist[4].is_infinite() && dist[5].is_infinite());
    }

    #[test]
    fn wcc_labels_are_component_minima() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (0, 2), (6, 5)];
        assert_eq!(
            wcc_labels(7, edges.iter().copied()),
            vec![0, 0, 0, 0, 4, 5, 5]
        );
    }

    #[test]
    fn pagerank_fixed_point_on_a_cycle() {
        // On a directed cycle every vertex keeps rank 1/n.
        let edges = [(0u32, 1u32, 1.0f32), (1, 2, 1.0), (2, 0, 1.0)];
        let ranks = RefCsr::new(3, edges.iter().copied()).pagerank(0.85, 50, 0.0);
        for r in &ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-12);
        }
        let got: Vec<f32> = ranks.iter().map(|&r| r as f32).collect();
        assert!(relative_l1(&got, &ranks) < 1e-6);
        assert!(relative_l1(&got[..2], &ranks).is_infinite());
    }
}
