//! An incremental engine's from-scratch fallback runs on the pool of
//! the context it is given, not on the global pool.

use egraph_core::algo::wcc::{self, IncrementalWcc};
use egraph_core::exec::ExecCtx;
use egraph_core::layout::{DeltaBatch, DeltaLog, DeltaOp};
use egraph_core::types::{Edge, EdgeList};
use egraph_parallel::ThreadPool;

#[test]
fn a_wcc_fallback_runs_on_the_context_pool() {
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
    pool.counters().enable();
    let outcome = engine.apply_ctx(&merged, &batch, &ExecCtx::new(&pool));
    let busy = pool.counters().snapshot().busy_seconds;

    assert!(outcome.fallback, "a delete forces the recompute");
    assert_eq!(engine.labels(), &wcc::reference(&merged)[..]);
    assert!(busy[2] > 0.0, "worker 2 of the context pool ran: {busy:?}");
}
