//! EverythingGraph-rs — a technique-isolation study of multicore graph
//! processing.
//!
//! This is the umbrella crate of a from-scratch Rust reproduction of
//! *"Everything you always wanted to know about multicore graph
//! processing but were afraid to ask"* (Malicevic, Lepers, Zwaenepoel —
//! USENIX ATC 2017). It re-exports the product crates of the workspace
//! so applications can depend on a single crate:
//!
//! * [`core`] — graph layouts (edge array / adjacency list / grid),
//!   pre-processing strategies (dynamic / count sort / radix sort), the
//!   push/pull/push-pull execution engine and the six study algorithms
//!   (BFS, WCC, SSSP, PageRank, SpMV, ALS).
//! * [`parallel`] — the fork-join work-queue runtime (Cilk substitute).
//! * [`sort`] — parallel radix and count sorting kernels.
//! * [`graphgen`] — RMAT, road-like, bipartite and uniform generators.
//! * [`storage`] — the binary edge and result formats, SNAP/DIMACS text
//!   import and a real throttled reader.
//!
//! The models that stand in for the paper's hardware — the LLC
//! simulator for its hardware counters, the 2- and 4-node NUMA machines
//! and the SSD/HDD loading model — are not part of the product: they
//! live with the experiments that use them, in `egraph-bench`.
//!
//! # Examples
//!
//! ```
//! use everything_graph::core::prelude::*;
//! use everything_graph::graphgen;
//!
//! // Generate a small power-law graph and run BFS on an adjacency
//! // list in push mode — the paper's recommended configuration for
//! // traversal algorithms (§9).
//! let edges = graphgen::rmat(10, 16, 42);
//! let graph = PreparedGraph::new(&edges).strategy(Strategy::RadixSort);
//! let id: VariantId = "bfs/adj/push".parse().unwrap();
//! let run = run_variant(&id, &ExecCtx::new(None), &graph, &RunParams::default()).unwrap();
//! assert!(run.output.as_bfs().unwrap().reachable_count() > 0);
//! ```

pub use egraph_core as core;
pub use egraph_graphgen as graphgen;
pub use egraph_parallel as parallel;
pub use egraph_sort as sort;
pub use egraph_storage as storage;
