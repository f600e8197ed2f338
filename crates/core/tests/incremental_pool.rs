//! An incremental engine's from-scratch fallback runs on the pool of
//! the context it is given, not on the global pool.
//!
//! The pool counters are process-global, so this file is a test binary
//! of its own and holds a single test.

use egraph_core::algo::wcc::{self, IncrementalWcc};
use egraph_core::exec::ExecCtx;
use egraph_core::layout::{DeltaBatch, DeltaLog, DeltaOp};
use egraph_core::types::{Edge, EdgeList};
use egraph_parallel::{telemetry, with_pool, ThreadPool};

#[test]
fn a_wcc_fallback_runs_on_the_context_pool() {
    // Two workers in the global pool, so a third worker can only be the
    // context pool's. Set before anything in this process builds it.
    std::env::set_var("EGRAPH_THREADS", "2");
    assert_eq!(egraph_parallel::current_num_threads(), 2);

    // A chain long enough that the hook round is over the inline grain.
    let n = 20_000u32;
    let base = EdgeList::new(
        n as usize,
        (0..n - 1).map(|v| Edge::new(v, v + 1)).collect(),
    )
    .unwrap();
    let mut engine = IncrementalWcc::new(&base);
    let mut batch = DeltaBatch::new();
    batch.ops.push(DeltaOp::Delete {
        src: 9_999,
        dst: 10_000,
    });
    let mut log = DeltaLog::new();
    log.push(batch.ops[0]);
    let merged = log.merge_into(&base);

    let pool = ThreadPool::new(3);
    telemetry::reset();
    telemetry::enable();
    let outcome = engine.apply_ctx(&merged, &batch, &ExecCtx::new(&pool));
    telemetry::disable();
    let busy = with_pool(&pool, telemetry::snapshot).busy_seconds;

    assert!(outcome.fallback, "a delete forces the recompute");
    assert_eq!(engine.labels(), &wcc::reference(&merged)[..]);
    assert!(busy[2] > 0.0, "worker 2 of the context pool ran: {busy:?}");
}
