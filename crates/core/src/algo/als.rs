//! Alternating least squares (ALS) collaborative filtering on a
//! bipartite ratings graph \[35\].
//!
//! "ALS computes recommendations from a bipartite graph. The left side
//! of the graph represents users and the other side items being rated.
//! During every iteration, a subset of the graph (the left or right
//! side) is active, and hence adjacency lists are the best data
//! layout." (§8)
//!
//! Users are vertices `0..num_users`, items `num_users..num_vertices`;
//! every rating is an edge `user → item` whose weight is the rating.
//! Each half-iteration solves, per active-side vertex, the regularized
//! normal equations `(QᵀQ + λI)·f = Qᵀr` with the dense Cholesky kernel
//! from [`crate::linalg`]. Both half-steps are pull-style: a vertex
//! reads its neighbors' factors and writes only its own — lock free.

use crate::exec::ExecCtx;
use crate::layout::Adjacency;
use crate::linalg::cholesky_solve_in_place;
use crate::metrics::{timed, IterStat, StepMode};
use crate::types::{EdgeRecord, VertexId, WEdge};
use crate::util::UnsyncSlice;

/// Configuration of an ALS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlsConfig {
    /// Latent factor dimensionality.
    pub rank: usize,
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Number of full (user+item) iterations.
    pub iterations: usize,
}

impl Default for AlsConfig {
    fn default() -> Self {
        Self {
            rank: 8,
            lambda: 0.1,
            iterations: 5,
        }
    }
}

/// The result of an ALS run.
#[derive(Debug, Clone)]
pub struct AlsResult {
    /// Row-major `num_vertices × rank` factor matrix (users then
    /// items).
    pub factors: Vec<f32>,
    /// Factor dimensionality.
    pub rank: usize,
    /// Training RMSE after each full iteration.
    pub rmse_history: Vec<f64>,
    /// Wall-clock seconds of the algorithm.
    pub seconds: f64,
}

impl AlsResult {
    /// The factor vector of one vertex.
    pub fn factor(&self, v: VertexId) -> &[f32] {
        &self.factors[v as usize * self.rank..(v as usize + 1) * self.rank]
    }

    /// Predicted rating of `user` for `item`.
    pub fn predict(&self, user: VertexId, item: VertexId) -> f32 {
        self.factor(user)
            .iter()
            .zip(self.factor(item))
            .map(|(a, b)| a * b)
            .sum()
    }
}

/// Runs ALS on a bipartite ratings graph.
///
/// `out` must hold the user→item edges grouped by user, `incoming` the
/// same edges grouped by item (build with `EdgeDirection::Both`).
///
/// # Panics
///
/// Panics if the adjacencies disagree on vertex count or `num_users`
/// exceeds it.
pub fn als(
    out: &Adjacency<WEdge>,
    incoming: &Adjacency<WEdge>,
    num_users: usize,
    cfg: AlsConfig,
) -> AlsResult {
    als_impl(out, incoming, num_users, cfg, &ExecCtx::default())
}

pub(crate) fn als_impl(
    out: &Adjacency<WEdge>,
    incoming: &Adjacency<WEdge>,
    num_users: usize,
    cfg: AlsConfig,
    ctx: &ExecCtx<'_>,
) -> AlsResult {
    let nv = out.num_vertices();
    assert_eq!(nv, incoming.num_vertices(), "direction vertex counts");
    assert!(num_users <= nv, "num_users exceeds vertex count");
    let k = cfg.rank.max(1);

    // Deterministic small initial factors.
    let mut factors: Vec<f32> = egraph_parallel::ops::parallel_init(nv * k, 1 << 14, |i| {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        0.1 + ((h >> 40) as f32 / (1u64 << 24) as f32) * 0.1
    });

    let mut rmse_history = Vec::with_capacity(cfg.iterations);
    let mut total = 0.0;
    for step in 0..cfg.iterations {
        // Solve users from item factors (users read their out-edges),
        // then items from user factors (items read their in-edges).
        let (_, seconds) = timed(|| {
            solve_side(&mut factors, out, 0..num_users, k, cfg.lambda, false);
            solve_side(&mut factors, incoming, num_users..nv, k, cfg.lambda, true);
        });
        total += seconds;
        if ctx.recorder.enabled() {
            let scanned = out.num_edges() + incoming.num_edges();
            // Both bipartite halves stream all their edges; the pull
            // direction is structural, never chosen.
            let stat = IterStat::full_scan(nv, scanned, seconds, StepMode::Pull);
            ctx.recorder.record_iteration(step, &stat);
        }
        rmse_history.push(rmse(&factors, out, k, num_users));
    }
    AlsResult {
        factors,
        rank: k,
        rmse_history,
        seconds: total,
    }
}

/// Solves the normal equations for every vertex in `range`, reading
/// neighbor factors and writing only the vertex's own factor row.
fn solve_side(
    factors: &mut [f32],
    adj: &Adjacency<WEdge>,
    range: std::ops::Range<usize>,
    k: usize,
    lambda: f64,
    neighbors_are_sources: bool,
) {
    let shared = UnsyncSlice::new(factors);
    egraph_parallel::parallel_for(range, 64, |vs| {
        let mut a = vec![0.0f64; k * k];
        let mut b = vec![0.0f64; k];
        let mut q = vec![0.0f64; k];
        for v in vs {
            let edges = adj.neighbors(v as VertexId);
            if edges.is_empty() {
                continue;
            }
            a.fill(0.0);
            b.fill(0.0);
            for e in edges {
                let n = if neighbors_are_sources {
                    e.src()
                } else {
                    e.dst()
                } as usize;
                for (j, qj) in q.iter_mut().enumerate() {
                    // SAFETY: neighbor rows belong to the *other* side
                    // of the bipartite graph, which this half-step
                    // never writes; reads cannot race with writes.
                    *qj = unsafe { shared.read(n * k + j) } as f64;
                }
                let r = e.weight() as f64;
                for i in 0..k {
                    b[i] += r * q[i];
                    for j in i..k {
                        a[i * k + j] += q[i] * q[j];
                    }
                }
            }
            // Mirror the upper triangle and regularize.
            for i in 0..k {
                for j in 0..i {
                    a[i * k + j] = a[j * k + i];
                }
                a[i * k + i] += lambda * edges.len() as f64;
            }
            if cholesky_solve_in_place(&mut a, &mut b, k) {
                for (j, &x) in b.iter().enumerate() {
                    // SAFETY: each `v` is processed by exactly one
                    // worker (disjoint parallel ranges), so the row
                    // `v*k..v*k+k` has a single writer.
                    unsafe { shared.write(v * k + j, x as f32) };
                }
            }
        }
    });
}

/// Training root-mean-square error over all ratings.
fn rmse(factors: &[f32], out: &Adjacency<WEdge>, k: usize, num_users: usize) -> f64 {
    let (sum, count) = egraph_parallel::parallel_reduce(
        0..num_users,
        256,
        || (0.0f64, 0u64),
        |(mut s, mut c), range| {
            for u in range {
                for e in out.neighbors(u as VertexId) {
                    let i = e.dst() as usize;
                    let pred: f32 = (0..k)
                        .map(|j| factors[u * k + j] * factors[i * k + j])
                        .sum();
                    let err = pred as f64 - e.weight() as f64;
                    s += err * err;
                    c += 1;
                }
            }
            (s, c)
        },
        |(s1, c1), (s2, c2)| (s1 + s2, c1 + c2),
    );
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EdgeDirection, VertexLayout};
    use crate::preprocess::{CsrBuilder, Strategy};
    use crate::types::EdgeList;

    /// A small bipartite ratings graph with planted structure: users
    /// 0..4 like even items, users 4..8 like odd items.
    fn ratings() -> (EdgeList<WEdge>, usize) {
        let num_users = 8usize;
        let num_items = 6usize;
        let mut edges = Vec::new();
        for u in 0..num_users as u32 {
            for i in 0..num_items as u32 {
                let item = num_users as u32 + i;
                let liked = (u < 4) == (i % 2 == 0);
                edges.push(WEdge::new(u, item, if liked { 5.0 } else { 1.0 }));
            }
        }
        (
            EdgeList::new(num_users + num_items, edges).unwrap(),
            num_users,
        )
    }

    fn run(cfg: AlsConfig) -> AlsResult {
        let (input, num_users) = ratings();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        als(adj.out(), adj.incoming(), num_users, cfg)
    }

    #[test]
    fn rmse_decreases() {
        let result = run(AlsConfig {
            iterations: 8,
            ..Default::default()
        });
        assert_eq!(result.rmse_history.len(), 8);
        let first = result.rmse_history[0];
        let last = *result.rmse_history.last().unwrap();
        assert!(last < first, "rmse went {first} -> {last}");
        assert!(last < 0.5, "final rmse {last}");
    }

    #[test]
    fn predictions_recover_planted_structure() {
        let result = run(AlsConfig {
            iterations: 10,
            ..Default::default()
        });
        // User 0 (likes even items) should prefer item 8 (even) over
        // item 9 (odd); user 5 the opposite.
        let (even_item, odd_item) = (8, 9);
        assert!(result.predict(0, even_item) > result.predict(0, odd_item));
        assert!(result.predict(5, odd_item) > result.predict(5, even_item));
    }

    #[test]
    fn rank_one_works() {
        let result = run(AlsConfig {
            rank: 1,
            iterations: 5,
            lambda: 0.1,
        });
        assert!(result.rmse_history.last().unwrap().is_finite());
    }

    #[test]
    fn vertices_without_ratings_keep_initial_factors() {
        let num_users = 2usize;
        let edges = vec![WEdge::new(0, 2, 4.0)];
        let input = EdgeList::new(4, edges).unwrap();
        let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both).build(&input);
        let result = als(adj.out(), adj.incoming(), num_users, AlsConfig::default());
        // User 1 and item 3 have no ratings; factors stay finite.
        assert!(result.factor(1).iter().all(|f| f.is_finite()));
        assert!(result.factor(3).iter().all(|f| f.is_finite()));
    }
}
