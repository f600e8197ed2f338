//! `egraph serve`: a long-lived daemon answering concurrent point
//! queries over one shared read-optimized CSR.
//!
//! The paper's batch model gives all cores to one algorithm invocation;
//! a query-serving workload instead wants many small traversals per
//! second against a graph that never changes between requests. The
//! mechanism that reconciles the two is **query batching**: the
//! admission queue ([`engine`]) groups up to [`wave::MAX_WAVE`] pending
//! same-algorithm queries into a wave, and one *multi-source* kernel
//! ([`wave`]) answers the whole wave with a single shared edge scan —
//! a bit-packed frontier holds one `u64` lane word per vertex, one bit
//! per query, so wave cost grows with the union of the frontiers, not
//! the sum. Per-query results are demuxed on completion and are
//! bit-identical to their single-query baselines.
//!
//! The TCP front-end ([`daemon`]) speaks newline-delimited JSON and
//! answers HTTP `GET /healthz` on the same port (`loading` → `ready`
//! around the resident layout build) so load balancers can gate on
//! graph-load completion.

pub mod daemon;
pub mod engine;
pub mod journal;
pub mod wave;

pub use daemon::ServeDaemon;
pub use engine::{
    Query, QueryKind, QueryOutcome, QueryValues, ServeConfig, ServeEngine, ServeGraph,
};
pub use journal::{EventOutcome, QueryEvent, QueryJournal};
pub use wave::{multi_bfs, multi_sssp, MAX_WAVE};
