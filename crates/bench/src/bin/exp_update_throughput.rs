//! Update-throughput experiment (DESIGN.md §16): delta-log apply and
//! compaction rates, plus incremental-vs-recompute speedups, at 0.1%,
//! 1% and 10% delta fractions on RMAT-18 (`--scale`/`EGRAPH_SCALE`
//! + 2).
//!
//! For each fraction the table reports the batched apply rate into a
//! [`DeltaGraph`] (updates/sec), the compaction seconds for folding
//! the log into a fresh published snapshot, and — for PageRank, BFS
//! and WCC — the seconds the incremental engine spends updating its
//! previous answer against the seconds a from-scratch solve of the
//! same engine takes on the merged graph. PageRank's update is its
//! block-ordered sweep warm-started from the previous ranks (`pr_path`
//! = `warm`), or a cold solve above the 5% fallback fraction
//! (`fallback`).
//!
//! The measured shape (RMAT-18, 2 vCPUs, EXPERIMENTS.md): the warm
//! start only saves the sweeps the previous ranks are ahead by — both
//! solves are the same block sweep, stop at the same tolerance and
//! converge geometrically — so PageRank gains ~1.5x at the 0.1%
//! fraction and ~1x at 1% (both sides ~0.6x the seconds of the Jacobi
//! sweeps they replaced). BFS's repair gains ~6x and ~2x. WCC
//! recomputes whenever a batch deletes, which every batch here does, so
//! it sits at ~1x, and the 10% row falls back for every engine by
//! design.
//!
//! Every timed update is asserted equal to the from-scratch answer
//! before its row is written (ranks within the testkit's reorder
//! tolerance, levels and labels exactly), so each speedup in the CSV
//! is for a verified-identical result.

use std::time::Instant;

use egraph_bench::{fmt_ratio, fmt_secs, graphs, reps, ExperimentCtx, ResultTable};
use egraph_core::algo::{bfs, pagerank, wcc};
use egraph_core::layout::{
    DeltaBatch, DeltaGraph, DeltaList, DeltaLog, DeltaOp, EdgeDirection, NeighborAccess,
    VertexLayout,
};
use egraph_core::preprocess::{CsrBuilder, Strategy};
use egraph_core::types::{Edge, EdgeList, EdgeRecord};

/// Rank agreement bound between the incremental and from-scratch
/// solves — the testkit's reorder tolerance.
const RANK_TOL: f32 = 1e-4;

/// The delta fractions the paper-style sweep reports.
const FRACTIONS: &[f64] = &[0.001, 0.01, 0.10];

/// SplitMix64, seeded per fraction so rows are independent and
/// reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One mixed update batch: ~75% inserts with random endpoints, ~25%
/// deletes of edges live in the base graph (multiset-wide, per the
/// documented delta semantics).
fn random_batch(rng: &mut Rng, nv: usize, base: &[Edge], n_ops: usize) -> DeltaBatch<Edge> {
    let mut batch = DeltaBatch::new();
    for _ in 0..n_ops {
        let op = if rng.below(4) < 3 || base.is_empty() {
            DeltaOp::Insert(Edge::new(
                rng.below(nv as u64) as u32,
                rng.below(nv as u64) as u32,
            ))
        } else {
            let e = base[rng.below(base.len() as u64) as usize];
            DeltaOp::Delete {
                src: e.src(),
                dst: e.dst(),
            }
        };
        batch.ops.push(op);
    }
    batch
}

/// The merged overlay view (base CSR + log) and its out-degrees — the
/// inputs the incremental engines take.
fn merged_view(base: &EdgeList<Edge>, log: &DeltaLog<Edge>) -> (DeltaList<Edge>, Vec<u32>) {
    let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
        .sort_neighbors(true)
        .build(base)
        .into_parts();
    let view = DeltaList::new(out, inc, log);
    let degrees = {
        let out = view.out();
        (0..out.num_vertices() as u32)
            .map(|v| out.degree(v) as u32)
            .collect()
    };
    (view, degrees)
}

/// Fastest of N timed runs of `f`, with any per-rep setup done by the
/// caller inside `f` *before* it starts its own clock.
fn best_secs<T>(n: usize, mut f: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..n.max(1) {
        let (value, secs) = f();
        if best.as_ref().is_none_or(|&(_, b)| secs < b) {
            best = Some((value, secs));
        }
    }
    best.expect("n >= 1")
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_update_throughput",
        "delta-log update rates and incremental-vs-recompute speedups",
    );
    let scale = ctx.scale + 2;
    let graph = graphs::rmat(scale);
    let nv = graph.num_vertices();
    let ne = graph.num_edges();
    let root = graphs::best_root(&graph);
    let damping = pagerank::PagerankConfig::default().damping;
    println!("RMAT{scale}: {nv} vertices, {ne} edges; bfs root {root}\n");

    // Prime each engine once on the base graph — the steady state an
    // updating deployment sits in before a batch arrives. The priming
    // solve is not part of any timed region.
    let empty = DeltaLog::new();
    let (view0, degrees0) = merged_view(&graph, &empty);
    let pr0 = pagerank::IncrementalPagerank::new(&view0, &degrees0, damping);
    let bfs0 = bfs::IncrementalBfs::new(&view0, root);
    let wcc0 = wcc::IncrementalWcc::new(&graph);
    drop(view0);

    let mut table = ResultTable::new(
        "update_throughput",
        &[
            "scale",
            "edges",
            "delta_fraction",
            "ops",
            "apply_s",
            "updates_per_s",
            "compact_s",
            "pr_path",
            "pr_inc_s",
            "pr_full_s",
            "pr_speedup",
            "bfs_inc_s",
            "bfs_full_s",
            "bfs_speedup",
            "wcc_inc_s",
            "wcc_full_s",
            "wcc_speedup",
        ],
    );

    for (i, &fraction) in FRACTIONS.iter().enumerate() {
        let n_ops = ((ne as f64 * fraction).round() as usize).max(1);
        let mut rng = Rng(0xE662_0017 ^ (i as u64) << 32);
        let batch = random_batch(&mut rng, nv, graph.edges(), n_ops);
        println!(
            "fraction {fraction}: {n_ops} ops ({} inserts, {} deletes)",
            batch
                .ops
                .iter()
                .filter(|op| matches!(op, DeltaOp::Insert(_)))
                .count(),
            batch
                .ops
                .iter()
                .filter(|op| matches!(op, DeltaOp::Delete { .. }))
                .count(),
        );

        // Raw mutation rates: append the batch to a fresh DeltaGraph's
        // log, then fold it into a published snapshot.
        let ((apply_s, compact_s), _) = best_secs(reps(), || {
            let dgraph = DeltaGraph::new(graph.clone());
            let t = Instant::now();
            dgraph.apply(&batch).expect("generated batch is in-bounds");
            let apply_s = t.elapsed().as_secs_f64();
            let stats = dgraph.compact();
            assert_eq!(stats.merged_ops, n_ops, "compaction must fold every op");
            ((apply_s, stats.seconds), apply_s + stats.seconds)
        });

        let mut log = DeltaLog::new();
        log.append(&batch);
        let (view, degrees) = merged_view(&graph, &log);
        let merged = log.merge_into(&graph);

        // PageRank: the primed engine's warm re-solve (a cold one on
        // fallback) vs a from-scratch solve of the same engine on the
        // merged view.
        let ((pr_ranks, pr_fallback), pr_inc_s) = best_secs(reps(), || {
            let mut engine = pr0.clone();
            let t = Instant::now();
            let outcome = engine.apply(&view, &degrees, &batch);
            let secs = t.elapsed().as_secs_f64();
            ((engine.ranks(), outcome.fallback), secs)
        });
        let (pr_full, pr_full_s) = best_secs(reps(), || {
            let t = Instant::now();
            let engine = pagerank::IncrementalPagerank::new(&view, &degrees, damping);
            let secs = t.elapsed().as_secs_f64();
            (engine.ranks(), secs)
        });
        let drift = max_abs_diff(&pr_ranks, &pr_full);
        assert!(
            drift <= RANK_TOL,
            "fraction {fraction}: incremental ranks drifted {drift} from recompute"
        );

        // BFS: repair levels vs a from-scratch traversal.
        let (bfs_levels, bfs_inc_s) = best_secs(reps(), || {
            let mut engine = bfs0.clone();
            let t = Instant::now();
            engine.apply(&view, &batch);
            let secs = t.elapsed().as_secs_f64();
            (engine.level().to_vec(), secs)
        });
        let (bfs_full, bfs_full_s) = best_secs(reps(), || {
            let t = Instant::now();
            let engine = bfs::IncrementalBfs::new(&view, root);
            let secs = t.elapsed().as_secs_f64();
            (engine.level().to_vec(), secs)
        });
        assert_eq!(
            bfs_levels, bfs_full,
            "fraction {fraction}: repaired BFS levels diverged from recompute"
        );

        // WCC: repair labels vs a from-scratch labeling. Mixed batches
        // contain deletes, so the engine recomputes (fallback) — the
        // honest number for this workload shape.
        let (wcc_labels, wcc_inc_s) = best_secs(reps(), || {
            let mut engine = wcc0.clone();
            let t = Instant::now();
            engine.apply(&merged, &batch);
            let secs = t.elapsed().as_secs_f64();
            (engine.labels().to_vec(), secs)
        });
        let (wcc_full, wcc_full_s) = best_secs(reps(), || {
            let t = Instant::now();
            let engine = wcc::IncrementalWcc::new(&merged);
            let secs = t.elapsed().as_secs_f64();
            (engine.labels().to_vec(), secs)
        });
        assert_eq!(
            wcc_labels, wcc_full,
            "fraction {fraction}: repaired WCC labels diverged from recompute"
        );

        table.add_row(vec![
            scale.to_string(),
            ne.to_string(),
            format!("{fraction}"),
            n_ops.to_string(),
            fmt_secs(apply_s),
            format!("{:.0}", n_ops as f64 / apply_s.max(1e-12)),
            fmt_secs(compact_s),
            if pr_fallback { "fallback" } else { "warm" }.to_string(),
            fmt_secs(pr_inc_s),
            fmt_secs(pr_full_s),
            fmt_ratio(pr_full_s / pr_inc_s.max(1e-12)),
            fmt_secs(bfs_inc_s),
            fmt_secs(bfs_full_s),
            fmt_ratio(bfs_full_s / bfs_inc_s.max(1e-12)),
            fmt_secs(wcc_inc_s),
            fmt_secs(wcc_full_s),
            fmt_ratio(wcc_full_s / wcc_inc_s.max(1e-12)),
        ]);
        println!(
            "  apply {} ({:.0} updates/s), compact {}; pagerank {} vs {} ({}), \
             bfs {} vs {}, wcc {} vs {}",
            fmt_secs(apply_s),
            n_ops as f64 / apply_s.max(1e-12),
            fmt_secs(compact_s),
            fmt_secs(pr_inc_s),
            fmt_secs(pr_full_s),
            if pr_fallback { "fallback" } else { "warm" },
            fmt_secs(bfs_inc_s),
            fmt_secs(bfs_full_s),
            fmt_secs(wcc_inc_s),
            fmt_secs(wcc_full_s),
        );
    }

    table.print();
    println!();
    println!(
        "measured shape: pagerank's warm start gains ~1.5x at \
         delta_fraction 0.001 and ~1x at 0.01, bfs's repair ~6x and ~2x; \
         WCC falls back whenever a batch contains deletes, and the 0.10 \
         row recomputes (speedups ~1x) by design."
    );
    ctx.save(&table);
}
