//! Push PageRank and push SpMV add into per-worker stripes on every
//! layout whose rounds do not own their destinations (edge array, adj,
//! ccsr, delta), and one pass per round sums and clears them. The
//! number of stripes follows the pool width, so every answer is checked
//! against the serial reference at several widths — more stripes than
//! cores included — and from inside an enclosing parallel region, where
//! the nested rounds run inline on the outer worker's id.
//!
//! PageRank runs at 1, 2 and 3 iterations: the stripes live for the
//! whole run, so a reduction that left a round's sums behind would
//! count them again from the second iteration on.

use egraph_core::algo::{pagerank, spmv};
use egraph_core::exec::ExecCtx;
use egraph_core::types::{EdgeList, EdgeRecord, WEdge};
use egraph_core::variant::{run_variant, PreparedGraph, RunParams, SyncMode, VariantId};
use egraph_parallel::{parallel_for, with_pool, ThreadPool};

/// The conformance matrix's tolerance for schedule-reordered `f32`
/// sums (`egraph_testkit::matrix::REORDER_TOL`, which this crate cannot
/// depend on). Applied relative to the larger magnitude without the
/// matrix's floor of 1, so it binds on ranks far below 1 too.
const REORDER_TOL: f64 = 1e-4;

/// Every layout whose push rounds share destinations between workers.
const LAYOUTS: [&str; 4] = ["edge", "adj", "ccsr", "delta"];

/// A seeded random weighted graph large enough that a push round is
/// split into chunks on every worker: 4 096 vertices, 32 768 edges,
/// weights in `[0.25, 4]`.
fn graph() -> EdgeList<WEdge> {
    let nv = 4096u64;
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let edges = (0..8 * nv)
        .map(|_| {
            let (src, dst) = ((next() % nv) as u32, (next() % nv) as u32);
            WEdge::new(src, dst, (1 + next() % 16) as f32 / 4.0)
        })
        .collect();
    EdgeList::new(nv as usize, edges).unwrap()
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        let (a, b) = (f64::from(a), f64::from(b));
        assert!(
            (a - b).abs() <= REORDER_TOL * a.abs().max(b.abs()),
            "{what}: [{i}] got {a}, want {b}"
        );
    }
}

/// Runs every striped push PageRank (1, 2 and 3 iterations) and push
/// SpMV under the calling thread's pool and checks each answer.
fn check_every_push(edges: &EdgeList<WEdge>, context: &str) {
    let prepared = PreparedGraph::new(edges);
    let mut degrees = vec![0u32; edges.num_vertices()];
    for e in edges.edges() {
        degrees[e.src() as usize] += 1;
    }
    let x: Vec<f32> = (0..edges.num_vertices())
        .map(|v| 0.5 + (v % 7) as f32)
        .collect();
    let ctx = ExecCtx::default();
    for layout in LAYOUTS {
        let id: VariantId = format!("pagerank/{layout}/push").parse().unwrap();
        for iterations in 1..=3 {
            let cfg = pagerank::PagerankConfig {
                iterations,
                ..Default::default()
            };
            let params = RunParams {
                pagerank: cfg,
                sync: SyncMode::Atomics,
                ..RunParams::default()
            };
            let run = run_variant(&id, &ctx, &prepared, &params).unwrap();
            let ranks = &run.output.as_pagerank().unwrap().ranks;
            let want = pagerank::reference(edges, &degrees, cfg);
            assert_close(ranks, &want, &format!("{id} × {iterations} ({context})"));
        }
        let id: VariantId = format!("spmv/{layout}/push").parse().unwrap();
        let params = RunParams {
            x: Some(&x),
            ..RunParams::default()
        };
        let run = run_variant(&id, &ctx, &prepared, &params).unwrap();
        let y = &run.output.as_spmv().unwrap().y;
        assert_close(y, &spmv::reference(edges, &x), &format!("{id} ({context})"));
    }
}

#[test]
fn striped_push_matches_the_reference_at_every_pool_width() {
    let edges = graph();
    for width in [1, 2, 3, 8] {
        let pool = ThreadPool::new(width);
        with_pool(&pool, || {
            check_every_push(&edges, &format!("width {width}"))
        });
    }
}

#[test]
fn striped_push_matches_the_reference_inside_an_enclosing_region() {
    let edges = graph();
    let pool = ThreadPool::new(3);
    with_pool(&pool, || {
        parallel_for(0..3, 1, |tasks| {
            for task in tasks {
                check_every_push(&edges, &format!("nested task {task}"));
            }
        })
    });
}
