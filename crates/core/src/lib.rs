//! EverythingGraph: a single system implementing the techniques of the
//! major multicore graph-processing frameworks, with every technique
//! individually selectable.
//!
//! This crate is the primary contribution of the reproduction of
//! *"Everything you always wanted to know about multicore graph
//! processing but were afraid to ask"* (USENIX ATC'17). It provides:
//!
//! * the canonical **edge-array input** ([`types::EdgeList`]),
//! * the four **data layouts** — edge array, adjacency list
//!   ([`layout::AdjacencyList`]), compressed CSR ([`layout::CcsrList`])
//!   and grid ([`layout::Grid`]),
//! * the three **pre-processing strategies** — dynamic, count sort and
//!   radix sort ([`preprocess`]),
//! * the **execution engine** with vertex-centric, edge-centric and
//!   grid iteration in push and pull modes ([`engine`]), with
//!   synchronization by striped locks, atomics, or structural
//!   exclusivity (lock free),
//! * the six study **algorithms** ([`algo`]): BFS, WCC, SSSP, PageRank,
//!   SpMV and ALS,
//! * end-to-end **time accounting** ([`metrics`]) and the §9 decision
//!   **roadmap** ([`roadmap`]), which names a runnable
//!   [`variant::VariantId`].
//!
//! The NUMA partitioner and locality model of the §7 experiments are a
//! modeled substrate and live with them, in `egraph-bench`.
//!
//! # Examples
//!
//! ```
//! use egraph_core::prelude::*;
//! use egraph_core::algo::bfs;
//!
//! // A tiny directed graph as an edge array…
//! let input = EdgeList::new(4, vec![
//!     Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3),
//! ]).unwrap();
//! // …pre-processed into an out-adjacency with radix sort…
//! let adj = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out).build(&input);
//! // …and traversed with push-mode BFS.
//! let result = bfs::push(&adj, 0);
//! assert_eq!(result.reachable_count(), 4);
//! assert_eq!(result.level[3], 3);
//! ```

pub mod algo;
pub mod engine;
pub mod exec;
pub mod explain;
pub mod frontier;
pub mod inspect;
pub mod layout;
pub mod linalg;
pub mod metrics;
pub mod preprocess;
pub mod roadmap;
pub mod serve;
pub mod telemetry;
pub mod trace_diff;
pub mod types;
pub mod util;
pub mod variant;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::exec::ExecCtx;
    pub use crate::frontier::{FrontierKind, VertexSubset};
    pub use crate::inspect::{summarize, GraphSummary};
    pub use crate::layout::{
        Adjacency, AdjacencyList, CcsrAdjacency, CcsrError, CcsrList, CompactStats, DeltaAdjacency,
        DeltaBatch, DeltaError, DeltaGraph, DeltaList, DeltaLog, DeltaOp, EdgeDirection, EpochCell,
        GraphSnapshot, Grid, NeighborAccess, VertexLayout,
    };
    pub use crate::metrics::{timed, IterStat, StepMode, TimeBreakdown};
    pub use crate::preprocess::{CcsrBuilder, CsrBuilder, GridBuilder, PreprocessStats, Strategy};
    pub use crate::telemetry::{NullRecorder, Recorder, RunTrace, TraceRecorder};
    pub use crate::types::{Edge, EdgeList, EdgeRecord, VertexId, WEdge, INVALID_VERTEX};
    pub use crate::variant::{
        run_variant, Algo, Direction, Layout, PreparedGraph, RunParams, SyncMode, VariantError,
        VariantId, VariantOutput, VariantRun,
    };
}
