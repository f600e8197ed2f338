//! Everything a workload feeds the product, made from the seed: graphs,
//! weights, graph files, query schedules and delta batches. The same
//! seed gives byte-identical inputs; the product only ever sees these
//! generated inputs, never the seed.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use egraph_core::layout::{DeltaBatch, DeltaOp};
use egraph_core::serve::{Query, QueryKind};
use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};
use egraph_graphgen::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::rng::{mix, Rng};

/// Stream labels, so no two generated inputs share random draws.
mod stream {
    pub const GRAPH: u64 = 1;
    pub const WEIGHTS: u64 = 2;
    pub const SHUFFLE: u64 = 3;
    pub const CANDIDATES: u64 = 4;
    pub const SCHEDULE: u64 = 5;
    pub const BATCHES: u64 = 6;
}

/// Seed of the one RMAT topology per scale that every run shares.
const TOPOLOGY_SEED: u64 = 0x2017_A7C0_E6A9;

/// Edge-factor 16 RMAT (the paper's RMAT-N shape) with vertex labels
/// permuted and edge order shuffled by the seed, as Graph500 does.
///
/// The topology itself is the same for every seed: degree sequence,
/// component sizes and BFS depth decide how much work an algorithm has,
/// and letting them move with the seed made pass times differ by 5 %
/// between seeds — wider than the regression bound could resolve. What
/// a change could overfit to (labels, memory order, roots, weights,
/// schedules) still changes with every seed.
pub fn rmat(scale: u32, seed: u64) -> EdgeList<Edge> {
    let topology = egraph_graphgen::rmat(scale, 16, TOPOLOGY_SEED);
    let mut rng = Rng::new(seed, stream::GRAPH);
    let relabeled = egraph_graphgen::permute_vertices(&topology, rng.next_u64());
    egraph_graphgen::shuffle_edges(&relabeled, rng.next_u64())
}

/// A `width × height` road-like lattice whose *edge order* is shuffled
/// by the seed. Vertex ids keep their spatial meaning (as DIMACS road
/// files do), so the traversal root and the diameter — and with them
/// the iteration counts the workload exists to stress — do not move
/// with the seed.
pub fn lattice(width: usize, height: usize, seed: u64) -> EdgeList<Edge> {
    let ordered = egraph_graphgen::road_like(width, height);
    egraph_graphgen::shuffle_edges(&ordered, Rng::new(seed, stream::SHUFFLE).next_u64())
}

/// Attaches seeded integer-valued weights in `1..=15`. Integer weights
/// keep every `f32` path sum exact, so distances are comparable
/// bit-for-bit whatever order relaxations ran in; hashing the endpoints
/// gives parallel copies of an edge the same weight.
pub fn weighted(graph: &EdgeList<Edge>, seed: u64) -> EdgeList<WEdge> {
    let salt = Rng::new(seed, stream::WEIGHTS).next_u64();
    graph.map_records(|e| {
        let h = mix(salt ^ (u64::from(e.src()) << 32 | u64::from(e.dst())));
        WEdge::new(e.src(), e.dst(), (1 + h % 15) as f32)
    })
}

/// The vertex with the largest out-degree: a traversal root that
/// reaches the giant component on every seed.
pub fn hub_root(graph: &EdgeList<Edge>) -> u32 {
    graph.max_degree_vertex().map_or(0, |(v, _)| v)
}

/// Writes `graph` in the product's binary edge-array format and returns
/// the file's size in bytes.
pub fn write_graph<E: EdgeRecord>(path: &Path, graph: &EdgeList<E>) -> std::io::Result<u64> {
    let file = File::create(path)?;
    egraph_storage::format::write_edge_list(BufWriter::new(&file), graph)?;
    Ok(file.metadata()?.len())
}

/// A per-process scratch directory under the benchmark's `out/`,
/// removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<out_dir>/tmp.<pid>`.
    pub fn new(out_dir: &Path) -> std::io::Result<Self> {
        let dir = out_dir.join(format!("tmp.{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A path inside the scratch directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is ignored by git
        // and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `count` distinct query sources in seeded order (index 0 is the
/// hottest root of the Zipf mix), drawn from the sixteenth of the
/// vertices with the most out-edges. Those all sit in the giant
/// component, so every query traverses about the same share of the
/// graph and the work a schedule asks for does not swing with which
/// vertex the seed happened to make hot.
pub fn candidate_sources(graph: &EdgeList<Edge>, count: usize, seed: u64) -> Vec<u32> {
    let degrees = graph.out_degrees();
    let mut pool: Vec<u32> = (0..graph.num_vertices() as u32)
        .filter(|&v| degrees[v as usize] > 0)
        .collect();
    pool.sort_unstable_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    pool.truncate((graph.num_vertices() / 16).max(count));
    let mut rng = Rng::new(seed, stream::CANDIDATES);
    let count = count.min(pool.len());
    for i in 0..count {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// The query mix of a schedule, in percent; the rest are `khop` at
/// [`KHOP_DEPTH`].
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of full-BFS queries.
    pub bfs_pct: u64,
    /// Share of SSSP queries (needs a weighted graph).
    pub sssp_pct: u64,
}

/// Depth bound of every generated `khop` query.
pub const KHOP_DEPTH: u32 = 2;

/// One scheduled query: what to ask and which candidate it asks about.
#[derive(Debug, Clone, Copy)]
pub struct Scheduled {
    /// The query handed to the engine.
    pub query: Query,
    /// Index into the candidate list (for the reference lookup).
    pub candidate: usize,
}

/// `count` queries: kinds in exactly the shares of `mix`, in seeded
/// order; sources Zipf(1.0) over the candidate order, so a few hot roots
/// repeat while the tail keeps arriving.
///
/// The shares are exact, not drawn per query: a wave holds up to 64
/// queries of one kind and costs about the same however full it is, so
/// a kind's count decides how many waves a burst needs. Drawn counts
/// moved that by one wave in four between seeds.
pub fn query_schedule(
    candidates: &[u32],
    count: usize,
    mix: Mix,
    seed: u64,
    phase: u64,
) -> Vec<Scheduled> {
    let zipf = Zipf::new(candidates.len(), 1.0);
    let mut rng = Rng::new(seed, stream::SCHEDULE ^ (phase << 8));
    let mut zipf_rng = StdRng::seed_from_u64(rng.next_u64());
    let share = |pct: u64| (count as u64 * pct + 50) / 100;
    let (bfs, sssp) = (share(mix.bfs_pct) as usize, share(mix.sssp_pct) as usize);
    let mut kinds: Vec<QueryKind> = (0..count)
        .map(|i| {
            if i < bfs {
                QueryKind::Bfs
            } else if i < bfs + sssp {
                QueryKind::Sssp
            } else {
                QueryKind::KHop
            }
        })
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .map(|kind| {
            let candidate = zipf.sample(&mut zipf_rng);
            Scheduled {
                query: Query {
                    kind,
                    source: candidates[candidate],
                    depth: if kind == QueryKind::KHop {
                        KHOP_DEPTH
                    } else {
                        0
                    },
                },
                candidate,
            }
        })
        .collect()
}

/// A schedule as text, one query per line — what the determinism test
/// compares byte for byte.
pub fn schedule_text(schedule: &[Scheduled]) -> String {
    schedule
        .iter()
        .map(|s| {
            format!(
                "{} {} {}\n",
                s.query.kind.name(),
                s.query.source,
                s.query.depth
            )
        })
        .collect()
}

/// Delta batch number `index` of a stream: `ops` operations.
/// Even-numbered batches only insert, so incremental WCC can repair;
/// odd-numbered ones delete a live base edge one time in four, which
/// forces its fallback. Inserts pick uniform endpoints; deletes name an
/// edge of `base` (multiset-wide, the product's delete semantics). Each
/// batch has its own random stream, so a run may generate them one at a
/// time, as many as its seconds allow.
pub fn delta_batch(
    base: &EdgeList<Edge>,
    index: usize,
    ops: usize,
    seed: u64,
    phase: u64,
) -> DeltaBatch<Edge> {
    let nv = base.num_vertices() as u64;
    let mut rng = Rng::new(
        seed,
        stream::BATCHES ^ (phase << 8) ^ ((index as u64) << 16),
    );
    let mut batch = DeltaBatch::new();
    for _ in 0..ops {
        let delete = index % 2 == 1 && rng.below(4) == 0 && base.num_edges() > 0;
        batch.ops.push(if delete {
            let e = base.edges()[rng.below(base.num_edges() as u64) as usize];
            DeltaOp::Delete {
                src: e.src(),
                dst: e.dst(),
            }
        } else {
            DeltaOp::Insert(Edge::new(rng.below(nv) as u32, rng.below(nv) as u32))
        });
    }
    batch
}

/// A batch as the NDJSON the serve engine's `apply_update` parses.
pub fn batch_ndjson(batch: &DeltaBatch<Edge>) -> String {
    batch
        .ops
        .iter()
        .map(|op| match op {
            DeltaOp::Insert(e) => {
                format!(
                    "{{\"op\":\"insert\",\"src\":{},\"dst\":{}}}\n",
                    e.src(),
                    e.dst()
                )
            }
            DeltaOp::Delete { src, dst } => {
                format!("{{\"op\":\"delete\",\"src\":{src},\"dst\":{dst}}}\n")
            }
        })
        .collect()
}

/// Replays `batches` over `base` with the product's documented delete
/// semantics (a delete removes every current copy of the edge; a later
/// insert adds one back) — written independently of `DeltaLog`, as the
/// reference for every mutated-graph answer. Edge order is not
/// preserved; no reference depends on it.
pub fn replay(base: &[Edge], batches: &[DeltaBatch<Edge>]) -> Vec<Edge> {
    use std::collections::HashMap;
    let mut copies: HashMap<(u32, u32), u32> = HashMap::new();
    for e in base {
        *copies.entry((e.src(), e.dst())).or_insert(0) += 1;
    }
    for batch in batches {
        for op in &batch.ops {
            match op {
                DeltaOp::Insert(e) => *copies.entry((e.src(), e.dst())).or_insert(0) += 1,
                DeltaOp::Delete { src, dst } => {
                    copies.remove(&(*src, *dst));
                }
            }
        }
    }
    let mut edges: Vec<Edge> = copies
        .into_iter()
        .flat_map(|((s, d), n)| std::iter::repeat_n(Edge::new(s, d), n as usize))
        .collect();
    // HashMap order differs run to run; sort so replays compare equal.
    edges.sort_unstable_by_key(|e| (e.src(), e.dst()));
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        bfs_pct: 35,
        sssp_pct: 15,
    };

    fn delta_batches(
        base: &EdgeList<Edge>,
        count: usize,
        ops: usize,
        seed: u64,
        phase: u64,
    ) -> Vec<DeltaBatch<Edge>> {
        (0..count)
            .map(|index| delta_batch(base, index, ops, seed, phase))
            .collect()
    }

    fn schedule_for(seed: u64) -> String {
        let graph = rmat(8, seed);
        let candidates = candidate_sources(&graph, 16, seed);
        schedule_text(&query_schedule(&candidates, 200, MIX, seed, 0))
    }

    fn batches_for(seed: u64) -> String {
        let graph = rmat(8, seed);
        delta_batches(&graph, 4, 50, seed, 0)
            .iter()
            .map(batch_ndjson)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        assert_eq!(schedule_for(2017), schedule_for(2017));
        assert_ne!(schedule_for(2017), schedule_for(2018));
        assert_eq!(batches_for(2017), batches_for(2017));
        assert_ne!(batches_for(2017), batches_for(2018));
        assert_eq!(rmat(8, 5).edges(), rmat(8, 5).edges());
        assert_ne!(rmat(8, 5).edges(), rmat(8, 6).edges());
        let (a, b) = (lattice(8, 8, 1), lattice(8, 8, 2));
        assert_ne!(a.edges(), b.edges());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn schedule_follows_the_mix_and_the_zipf_head() {
        let graph = rmat(8, 1);
        let candidates = candidate_sources(&graph, 16, 1);
        let schedule = query_schedule(&candidates, 4000, MIX, 1, 0);
        let share = |k: QueryKind| {
            schedule.iter().filter(|s| s.query.kind == k).count() as f64 / schedule.len() as f64
        };
        assert_eq!(share(QueryKind::Bfs), 0.35);
        assert_eq!(share(QueryKind::Sssp), 0.15);
        let hottest = schedule.iter().filter(|s| s.candidate == 0).count();
        let coldest = schedule.iter().filter(|s| s.candidate == 15).count();
        assert!(hottest > 5 * coldest.max(1));
        assert!(schedule
            .iter()
            .all(|s| s.query.source == candidates[s.candidate]));
    }

    #[test]
    fn batches_alternate_insert_only_and_mixed_and_round_trip_as_ndjson() {
        let graph = rmat(8, 3);
        let batches = delta_batches(&graph, 4, 200, 3, 0);
        assert!(!batches[0].has_deletes() && !batches[2].has_deletes());
        assert!(batches[1].has_deletes() && batches[3].has_deletes());
        for batch in &batches {
            assert_eq!(batch.len(), 200);
            let parsed = DeltaBatch::<Edge>::parse_ndjson(&batch_ndjson(batch)).unwrap();
            assert_eq!(&parsed, batch);
        }
    }

    #[test]
    fn replay_agrees_with_the_products_merge() {
        let graph = rmat(8, 4);
        let batches = delta_batches(&graph, 6, 100, 4, 0);
        let mut log = egraph_core::layout::DeltaLog::new();
        for batch in &batches {
            log.append(batch);
        }
        let mut want = log.merge_into(&graph).into_edges();
        want.sort_unstable_by_key(|e| (e.src(), e.dst()));
        assert_eq!(replay(graph.edges(), &batches), want);
    }

    #[test]
    fn weights_are_small_integers_and_stable_per_edge() {
        let graph = rmat(8, 9);
        let w = weighted(&graph, 9);
        assert!(w
            .edges()
            .iter()
            .all(|e| e.weight().fract() == 0.0 && (1.0..=15.0).contains(&e.weight())));
        assert_eq!(w.edges(), weighted(&graph, 9).edges());
    }
}
