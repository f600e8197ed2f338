//! The shared graph corpus: realistic generated shapes plus the
//! adversarial edge cases every technique must survive.

use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};

/// Seed used when `EGRAPH_TEST_SEED` is not set.
pub const DEFAULT_SEED: u64 = 0xE662_0017;

/// The test seed: `EGRAPH_TEST_SEED` (decimal or `0x`-prefixed hex) if
/// set and valid, otherwise [`DEFAULT_SEED`]. Harness failure messages
/// log this value so any CI failure reproduces locally.
pub fn test_seed() -> u64 {
    parse_seed(std::env::var("EGRAPH_TEST_SEED").ok().as_deref())
}

fn parse_seed(raw: Option<&str>) -> u64 {
    match raw {
        Some(raw) => {
            let raw = raw.trim();
            let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => raw.parse::<u64>(),
            };
            parsed.unwrap_or(DEFAULT_SEED)
        }
        None => DEFAULT_SEED,
    }
}

/// A corpus entry: a graph plus the name failure reports refer to it by.
#[derive(Debug, Clone)]
pub struct NamedGraph {
    /// Stable name, e.g. `"rmat_s6"` or `"adversarial/self_loops"`.
    pub name: String,
    /// The (unweighted, directed) edge list.
    pub graph: EdgeList<Edge>,
}

impl NamedGraph {
    fn new(name: &str, graph: EdgeList<Edge>) -> Self {
        Self {
            name: name.to_string(),
            graph,
        }
    }
}

fn edge_list(nv: usize, edges: Vec<Edge>) -> EdgeList<Edge> {
    EdgeList::new(nv, edges).expect("corpus edges must be in bounds")
}

/// The adversarial shapes: degenerate graphs that historically break
/// boundary arithmetic long before performance matters.
fn adversarial() -> Vec<NamedGraph> {
    let mut graphs = Vec::new();
    graphs.push(NamedGraph::new(
        "adversarial/empty",
        edge_list(0, Vec::new()),
    ));
    graphs.push(NamedGraph::new(
        "adversarial/single_vertex",
        edge_list(1, Vec::new()),
    ));
    graphs.push(NamedGraph::new(
        "adversarial/single_self_loop",
        edge_list(1, vec![Edge::new(0, 0)]),
    ));
    // Self loops sprinkled into a small cycle.
    let mut loops = Vec::new();
    for v in 0..8u32 {
        loops.push(Edge::new(v, (v + 1) % 8));
        if v % 2 == 0 {
            loops.push(Edge::new(v, v));
        }
    }
    graphs.push(NamedGraph::new(
        "adversarial/self_loops",
        edge_list(8, loops),
    ));
    // Every edge duplicated (and one triplicated).
    let mut dups = Vec::new();
    for v in 0..6u32 {
        let e = Edge::new(v, (v + 2) % 6);
        dups.push(e);
        dups.push(e);
    }
    dups.push(Edge::new(0, 2));
    graphs.push(NamedGraph::new(
        "adversarial/duplicate_edges",
        edge_list(6, dups),
    ));
    // Star: hub 0 points at every spoke; two spokes point back.
    let mut star = Vec::new();
    for v in 1..33u32 {
        star.push(Edge::new(0, v));
    }
    star.push(Edge::new(7, 0));
    star.push(Edge::new(15, 0));
    graphs.push(NamedGraph::new("adversarial/star", edge_list(33, star)));
    // Chain: a long path exercises many BFS/WCC iterations.
    let chain: Vec<Edge> = (0..40u32).map(|v| Edge::new(v, v + 1)).collect();
    graphs.push(NamedGraph::new("adversarial/chain", edge_list(41, chain)));
    // Disconnected: two separate cycles plus isolated vertices.
    let mut disc = Vec::new();
    for v in 0..5u32 {
        disc.push(Edge::new(v, (v + 1) % 5));
    }
    for v in 0..7u32 {
        disc.push(Edge::new(8 + v, 8 + (v + 1) % 7));
    }
    graphs.push(NamedGraph::new(
        "adversarial/disconnected",
        edge_list(20, disc),
    ));
    graphs
}

/// The quick corpus: all adversarial shapes plus small generated
/// graphs. Small enough for the full matrix to run inside
/// `cargo test -q`.
pub fn quick_corpus(seed: u64) -> Vec<NamedGraph> {
    let mut graphs = adversarial();
    graphs.push(NamedGraph::new(
        "rmat_s6",
        egraph_graphgen::rmat(6, 8, seed ^ 0x1),
    ));
    graphs.push(NamedGraph::new(
        "small_world_128",
        egraph_graphgen::small_world(128, 4, 0.1, seed ^ 0x2),
    ));
    graphs.push(NamedGraph::new(
        "road_8x8",
        egraph_graphgen::road_like(8, 8),
    ));
    graphs.push(wide_rounds(seed));
    graphs
}

/// A graph whose BFS and SSSP runs have push rounds on both sides of
/// `egraph_core::engine::INLINE_GRAIN`. Every other quick graph is so
/// small that all its rounds run on the calling thread; this one keeps
/// the parallel push path and its frontier collection under every
/// multi-thread check that runs the quick corpus.
pub fn wide_rounds(seed: u64) -> NamedGraph {
    NamedGraph::new(
        "small_world_2048",
        egraph_graphgen::small_world(2048, 6, 0.1, seed ^ 0x3),
    )
}

/// The exhaustive corpus: the quick corpus plus larger instances of
/// each realistic family and a shuffled/permuted variant (same graph,
/// different edge order and vertex ids — results must not care).
pub fn exhaustive_corpus(seed: u64) -> Vec<NamedGraph> {
    let mut graphs = quick_corpus(seed);
    graphs.push(NamedGraph::new(
        "rmat_s8",
        egraph_graphgen::rmat(8, 8, seed ^ 0x10),
    ));
    graphs.push(NamedGraph::new(
        "twitter_like_s8",
        egraph_graphgen::twitter_like(8, seed ^ 0x11),
    ));
    graphs.push(NamedGraph::new(
        "small_world_512",
        egraph_graphgen::small_world(512, 6, 0.05, seed ^ 0x12),
    ));
    graphs.push(NamedGraph::new(
        "road_24x24",
        egraph_graphgen::road_like(24, 24),
    ));
    graphs.push(NamedGraph::new(
        "uniform_400",
        egraph_graphgen::uniform(400, 2400, seed ^ 0x13),
    ));
    let base = egraph_graphgen::rmat(7, 8, seed ^ 0x14);
    let shuffled = egraph_graphgen::shuffle_edges(&base, seed ^ 0x15);
    graphs.push(NamedGraph::new(
        "rmat_s7_shuffled",
        egraph_graphgen::permute_vertices(&shuffled, seed ^ 0x16),
    ));
    graphs
}

/// Attaches deterministic positive weights in `(0, 1]` to a graph —
/// the weighted view used by SSSP and SpMV. The weight of an edge
/// depends only on its endpoints, so duplicate edges carry equal
/// weights and any edge reordering yields the same weighted graph.
pub fn weighted(graph: &EdgeList<Edge>) -> EdgeList<WEdge> {
    graph.map_records(|e| WEdge::new(e.src(), e.dst(), edge_weight(e.src(), e.dst())))
}

/// A deterministic pseudo-random weight in `(0, 1]` for edge `(s, d)`.
/// Public so the update oracle can weight *inserted* edges the same way
/// [`weighted`] weights base edges — merging weighted deltas then must
/// equal weighting the merged graph.
pub fn edge_weight(s: u32, d: u32) -> f32 {
    let h = mix(((s as u64) << 32) | d as u64);
    ((h >> 40) as f32 + 1.0) / (1u64 << 24) as f32
}

/// A deterministic input vector for SpMV, entries in `[0, 1)`.
pub fn spmv_input(nv: usize) -> Vec<f32> {
    (0..nv)
        .map(|i| (mix(i as u64 ^ 0xABCD) >> 40) as f32 / (1u64 << 24) as f32)
        .collect()
}

/// A small bipartite ratings graph for ALS: `(graph, num_users)`.
pub fn ratings_graph(seed: u64) -> (EdgeList<WEdge>, usize) {
    let num_users = 24;
    (
        egraph_graphgen::netflix_like(num_users, 12, 6, seed ^ 0x20),
        num_users,
    )
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_contains_required_shapes() {
        let names: Vec<String> = quick_corpus(1).into_iter().map(|g| g.name).collect();
        for required in [
            "adversarial/empty",
            "adversarial/single_vertex",
            "adversarial/self_loops",
            "adversarial/duplicate_edges",
            "adversarial/star",
            "adversarial/chain",
            "adversarial/disconnected",
            "rmat_s6",
            "small_world_128",
            "road_8x8",
            "small_world_2048",
        ] {
            assert!(names.iter().any(|n| n == required), "missing {required}");
        }
    }

    #[test]
    fn weights_are_positive_and_reorder_invariant() {
        let g = egraph_graphgen::rmat(5, 8, 7);
        let w = weighted(&g);
        assert!(w
            .edges()
            .iter()
            .all(|e| e.weight() > 0.0 && e.weight() <= 1.0));
        let shuffled = egraph_graphgen::shuffle_edges(&g, 99);
        let ws = weighted(&shuffled);
        // Same endpoint pair → same weight, regardless of edge order.
        let key = |e: &WEdge| (e.src(), e.dst(), e.weight().to_bits());
        let mut a: Vec<_> = w.edges().iter().map(key).collect();
        let mut b: Vec<_> = ws.edges().iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_env_override_parses_hex_and_decimal() {
        // Avoid mutating the process env (tests run concurrently);
        // exercise the parser with explicit inputs instead.
        assert_eq!(parse_seed(None), DEFAULT_SEED);
        assert_eq!(parse_seed(Some("77")), 77);
        assert_eq!(parse_seed(Some(" 0xDEADBEEF ")), 0xDEAD_BEEF);
        assert_eq!(parse_seed(Some("0X10")), 16);
        assert_eq!(parse_seed(Some("not a number")), DEFAULT_SEED);
        assert_eq!(parse_seed(Some("")), DEFAULT_SEED);
    }
}
