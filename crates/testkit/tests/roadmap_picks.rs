//! Every pick of the §9 roadmap is a variant the product runs, and runs
//! conformant: `roadmap::recommend` names its choice with the variant
//! table's own `VariantId`, so a pick outside `is_supported` (PageRank
//! on a low-degree graph once mapped to `pagerank/edge/pull`) is caught
//! here.

use egraph_core::roadmap::recommend;
use egraph_core::variant::{is_supported, Algo};
use egraph_parallel::{with_pool, ThreadPool};
use egraph_testkit::{check_variant, exhaustive_corpus, test_seed, MatrixConfig, NamedGraph};

/// Road lattices sit near 4 (US-Road 2.4); RMAT and Twitter-like at 16
/// and 24; 7.9 and 8.0 straddle the grid threshold.
const DEGREES: [f64; 6] = [1.0, 2.4, 7.9, 8.0, 16.0, 24.0];

fn corpus_graph<'a>(graphs: &'a [NamedGraph], name: &str) -> &'a NamedGraph {
    graphs
        .iter()
        .find(|g| g.name == name)
        .unwrap_or_else(|| panic!("{name} is in the exhaustive corpus"))
}

#[test]
fn every_pick_is_supported_and_conformant() {
    let seed = test_seed();
    let corpus = exhaustive_corpus(seed);
    let graphs = [
        corpus_graph(&corpus, "rmat_s8"),
        corpus_graph(&corpus, "road_24x24"),
    ];
    let cfg = MatrixConfig::quick(seed);
    for algo in Algo::ALL {
        for avg_degree in DEGREES {
            let id = recommend(algo, avg_degree).variant;
            assert!(is_supported(&id), "{algo} at avg degree {avg_degree}: {id}");
            for named in graphs {
                for &threads in &cfg.thread_counts {
                    let pool = ThreadPool::new(threads);
                    with_pool(&pool, || check_variant(named, &id, &cfg)).assert_clean();
                }
            }
        }
    }
}

#[test]
fn picks_are_pinned() {
    let pick = |algo, avg_degree| recommend(algo, avg_degree).variant.to_string();
    for avg_degree in DEGREES {
        assert_eq!(pick(Algo::Bfs, avg_degree), "bfs/adj/push");
        assert_eq!(pick(Algo::Sssp, avg_degree), "sssp/adj/push");
        assert_eq!(pick(Algo::Spmv, avg_degree), "spmv/edge/push");
        // Union-find WCC: the adjacency list never earns its build back
        // (EXPERIMENTS.md, "The Table 6 reading this changes").
        assert_eq!(pick(Algo::Wcc, avg_degree), "wcc/edge/push");
        let pagerank = if avg_degree >= 8.0 {
            "pagerank/grid/pull"
        } else {
            // The paper's US-Road edge-array row.
            "pagerank/edge/push"
        };
        assert_eq!(pick(Algo::Pagerank, avg_degree), pagerank);
    }
}
