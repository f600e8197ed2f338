//! The unified execution context for algorithm dispatch.
//!
//! Every driver, kernel and algorithm entry point takes one borrowed
//! [`ExecCtx`]: an optional scoped pool and one telemetry recorder,
//! which receives the run's phases, iterations and counters, set
//! through a builder:
//!
//! ```
//! use egraph_core::exec::ExecCtx;
//! use egraph_core::telemetry::TraceRecorder;
//!
//! let recorder = TraceRecorder::new();
//! let ctx = ExecCtx::new(None).recorder(&recorder);
//! assert!(ctx.pool().is_none());
//! ```
//!
//! The recorder is a trait object, so each kernel is compiled once per
//! layout and per-edge rule ([`PushOp`] / [`PullOp`] stay
//! monomorphized) and an uninstrumented run executes the same machine
//! code as a traced one. Drivers read `recorder.enabled()` once per
//! chunk, so the handle costs no virtual call per edge. Nothing here
//! feeds the cache model: `egraph-bench` replays the kernels' access
//! order offline.
//!
//! [`PushOp`]: crate::engine::PushOp
//! [`PullOp`]: crate::engine::PullOp

use egraph_parallel::{with_pool, ThreadPool};

use crate::telemetry::{NullRecorder, Recorder};

/// Phase label for layout construction under [`ExecCtx::profile`].
pub const PHASE_PREPROCESS: &str = "preprocess";
/// Phase label for the algorithm run under [`ExecCtx::profile`].
pub const PHASE_ALGORITHM: &str = "algorithm";
/// Phase label for merging a delta log into a fresh snapshot
/// (DESIGN.md §16). Only present in traces from runs that applied
/// updates; `trace diff` therefore lists it in
/// [`crate::trace_diff::OPTIONAL_PHASES`] so it may appear from a zero
/// baseline without gating.
pub const PHASE_COMPACT: &str = "compact";

/// The unified execution context: an optional scoped [`ThreadPool`] and
/// one telemetry recorder.
///
/// Built with [`ExecCtx::new`] plus the builder methods; everything
/// defaults to "off" (global pool, null recorder).
///
/// # Examples
///
/// ```
/// use egraph_core::prelude::*;
///
/// let input = EdgeList::new(3, vec![Edge::new(0, 1), Edge::new(1, 2)]).unwrap();
/// let prepared = PreparedGraph::new(&input).strategy(Strategy::RadixSort);
/// let id: VariantId = "bfs/adj/push".parse().unwrap();
///
/// // Uninstrumented run (null recorder):
/// let plain = run_variant(&id, &ExecCtx::new(None), &prepared, &RunParams::default()).unwrap();
///
/// // Traced run:
/// let recorder = TraceRecorder::new();
/// let ctx = ExecCtx::new(None).recorder(&recorder);
/// let traced = run_variant(&id, &ctx, &prepared, &RunParams::default()).unwrap();
/// let (plain, traced) = (plain.output.as_bfs().unwrap(), traced.output.as_bfs().unwrap());
/// assert_eq!(plain.level, traced.level);
/// assert_eq!(recorder.iterations().len(), traced.iterations.len());
/// // The same recorder holds the run's phases.
/// let phases: Vec<_> = recorder.phases().into_iter().map(|p| p.name).collect();
/// assert_eq!(phases, ["preprocess", "algorithm"]);
/// ```
#[derive(Clone, Copy)]
pub struct ExecCtx<'a> {
    pool: Option<&'a ThreadPool>,
    pub(crate) recorder: &'a dyn Recorder,
}

impl std::fmt::Debug for ExecCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("pool", &self.pool.map(ThreadPool::num_threads))
            .field("recorder_enabled", &self.recorder.enabled())
            .finish()
    }
}

impl<'a> ExecCtx<'a> {
    /// Creates a context that runs on `pool` (or the ambient pool when
    /// `None`) with instrumentation off.
    pub fn new(pool: impl Into<Option<&'a ThreadPool>>) -> Self {
        Self {
            pool: pool.into(),
            recorder: &NullRecorder,
        }
    }

    /// This context with a telemetry recorder. A recorder that records
    /// phases (a [`TraceRecorder`](crate::telemetry::TraceRecorder))
    /// receives [`run_variant`](crate::variant::run_variant)'s layout
    /// construction and algorithm run as `"preprocess"` /
    /// `"algorithm"` phases.
    pub fn recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The scoped pool, if one was set.
    pub fn pool(&self) -> Option<&'a ThreadPool> {
        self.pool
    }

    /// Runs `f` under this context's pool (or inline on the ambient
    /// pool when none was set).
    pub fn scoped<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.pool {
            Some(pool) => with_pool(pool, f),
            None => f(),
        }
    }

    /// Runs `f` as phase `name` of the recorder (which may record
    /// nothing: see [`Recorder::begin_phase`]).
    pub fn profile<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = self.recorder.begin_phase(name);
        let out = f();
        self.recorder.end_phase(start);
        out
    }
}

impl Default for ExecCtx<'static> {
    fn default() -> Self {
        Self::new(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TraceRecorder;

    #[test]
    fn builder_defaults_are_off() {
        let ctx = ExecCtx::new(None);
        assert!(ctx.pool().is_none());
        assert!(!ctx.recorder.enabled());
    }

    #[test]
    fn builder_attaches_instrumentation() {
        let recorder = TraceRecorder::new();
        let pool = ThreadPool::new(2);
        let ctx = ExecCtx::new(&pool).recorder(&recorder);
        assert_eq!(ctx.pool().map(ThreadPool::num_threads), Some(2));
        assert!(ctx.recorder.enabled());
        ctx.recorder.record_counter("x", 3);
        assert_eq!(recorder.counters().get("x"), Some(&3.0));
    }

    /// `run_variant`'s two phases reach the one recorder on the
    /// context, in the order they ran, and `absorb` carries them into
    /// the trace with the iterations.
    #[test]
    fn run_variant_records_its_phases_on_the_recorder() {
        use crate::telemetry::RunTrace;
        use crate::types::{Edge, EdgeList};
        use crate::variant::{run_variant, PreparedGraph, RunParams, VariantId};

        let edges = (0..7).map(|v| Edge::new(v, v + 1)).collect();
        let input = EdgeList::new(8, edges).unwrap();
        let prepared = PreparedGraph::new(&input);
        let id: VariantId = "bfs/adj/push".parse().unwrap();
        let recorder = TraceRecorder::new();
        let ctx = ExecCtx::new(None).recorder(&recorder);
        let run = run_variant(&id, &ctx, &prepared, &RunParams::default()).unwrap();

        let names: Vec<String> = recorder.phases().into_iter().map(|p| p.name).collect();
        assert_eq!(names, [PHASE_PREPROCESS, PHASE_ALGORITHM]);
        let mut trace = RunTrace::new("bfs");
        trace.absorb(&recorder);
        assert_eq!(trace.phases, recorder.phases());
        assert_eq!(
            trace.iterations.len(),
            run.output.as_bfs().unwrap().iterations.len()
        );
        assert!(trace.phases.iter().all(|p| p.memory.is_some()));
    }

    #[test]
    fn scoped_runs_under_pool() {
        let pool = ThreadPool::new(3);
        let ctx = ExecCtx::new(&pool);
        let n = ctx.scoped(egraph_parallel::current_num_threads);
        assert_eq!(n, 3);
    }
}
