//! The update-aware conformance oracle: every incremental result must
//! equal a from-scratch recompute on the merged graph.
//!
//! The mutable delta layout (DESIGN.md §16) introduces a second axis of
//! correctness the static matrix cannot see: results now depend on a
//! *history* of applied batches, not just on one frozen graph. This
//! module drives that history deterministically — seeded random batches
//! of inserts, deletes, duplicates and self-loops against every corpus
//! graph — and after **every** applied batch checks three things:
//!
//! 1. the incremental engines ([`pagerank::IncrementalPagerank`],
//!    [`wcc::IncrementalWcc`], [`bfs::IncrementalBfs`]) — one set per
//!    configured thread count, built and repaired under its own pool —
//!    agree with the serial reference on the merged graph, whichever
//!    path (repair or fallback) they took;
//! 2. every `Layout::Delta` variant — all directions, both sync modes,
//!    at every configured thread count — agrees with the same algorithm
//!    run from scratch on the merged graph (integer results exactly,
//!    float results within the documented reorder tolerance);
//! 3. after compaction the published snapshot is the merged graph at a
//!    bumped epoch, and queries against it still agree.
//!
//! Scheduler fault injection (delayed workers, seeded)
//! runs underneath the variant sweep when enabled: update correctness
//! must not depend on a benign schedule. The fault plan is installed
//! on each sweep pool alone, so callers need not serialize.

use egraph_core::algo::{bfs, pagerank, wcc};
use egraph_core::exec::ExecCtx;
use egraph_core::layout::{
    DeltaBatch, DeltaGraph, DeltaList, DeltaLog, DeltaOp, EdgeDirection, NeighborAccess,
    VertexLayout,
};
use egraph_core::preprocess::{CsrBuilder, Strategy};
use egraph_core::types::{Edge, EdgeList, EdgeRecord, WEdge};
use egraph_core::variant::{
    run_variant, supported_variants, sync_matters, Layout, PreparedGraph, RunParams, SyncMode,
    VariantId, VariantOutput,
};
use egraph_parallel::{with_pool, ThreadPool};

use crate::corpus::{edge_weight, spmv_input, weighted, NamedGraph};
use crate::matrix::{Mismatch, REORDER_TOL};

/// Update-oracle run parameters.
#[derive(Debug, Clone)]
pub struct UpdateConfig {
    /// Thread counts the variant sweep runs at.
    pub thread_counts: Vec<usize>,
    /// Seed deriving every batch (echoed in failure messages).
    pub seed: u64,
    /// Applied batches per graph.
    pub batches: usize,
    /// Ops per batch.
    pub ops_per_batch: usize,
    /// Install the seeded scheduler fault plan (delayed workers) on
    /// each pool of the variant sweep.
    pub faults: bool,
}

impl UpdateConfig {
    /// The quick tier: small batches, [`crate::QUICK_THREADS`].
    pub fn quick(seed: u64) -> Self {
        Self {
            thread_counts: crate::QUICK_THREADS.to_vec(),
            seed,
            batches: 3,
            ops_per_batch: 6,
            faults: false,
        }
    }

    /// The exhaustive tier: more and bigger batches (including ones
    /// past the fallback threshold), [`crate::EXHAUSTIVE_THREADS`],
    /// faults on.
    pub fn exhaustive(seed: u64) -> Self {
        Self {
            thread_counts: crate::EXHAUSTIVE_THREADS.to_vec(),
            seed,
            batches: 5,
            ops_per_batch: 12,
            faults: true,
        }
    }
}

/// The outcome of an update-oracle run.
#[derive(Debug)]
pub struct UpdateReport {
    /// Comparisons executed.
    pub checks_run: usize,
    /// Every failed comparison.
    pub mismatches: Vec<Mismatch>,
    /// The seed, echoed for reproduction.
    pub seed: u64,
}

impl UpdateReport {
    /// Panics with a reproducible report if any check failed.
    pub fn assert_clean(&self) {
        assert!(self.checks_run > 0, "update oracle ran no checks");
        if self.mismatches.is_empty() {
            return;
        }
        let mut msg = format!(
            "update oracle failed ({} of {} checks; \
             reproduce with EGRAPH_TEST_SEED={:#x}):\n",
            self.mismatches.len(),
            self.checks_run,
            self.seed
        );
        for m in &self.mismatches {
            msg.push_str(&format!("  {m}\n"));
        }
        panic!("{msg}");
    }
}

/// SplitMix64: one independent stream per (graph, purpose).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One seeded batch: inserts (fresh, duplicate, self-loop) and deletes
/// of edges present in `current` (kept in sync with the merged graph so
/// deletes usually hit something).
fn random_batch(rng: &mut Rng, nv: usize, current: &[Edge], ops: usize) -> DeltaBatch<Edge> {
    let mut batch = DeltaBatch::new();
    for _ in 0..ops {
        let op = match rng.below(8) {
            // Fresh insert (may collide with an existing edge, which is
            // a legal duplicate).
            0..=3 => DeltaOp::Insert(Edge::new(rng.below(nv) as u32, rng.below(nv) as u32)),
            // Exact duplicate of an existing edge.
            4 if !current.is_empty() => DeltaOp::Insert(current[rng.below(current.len())]),
            // Self-loop.
            5 => {
                let v = rng.below(nv) as u32;
                DeltaOp::Insert(Edge::new(v, v))
            }
            // Delete an existing edge (multiset-wide).
            _ if !current.is_empty() => {
                let e = current[rng.below(current.len())];
                DeltaOp::Delete {
                    src: e.src(),
                    dst: e.dst(),
                }
            }
            _ => DeltaOp::Insert(Edge::new(rng.below(nv) as u32, rng.below(nv) as u32)),
        };
        batch.ops.push(op);
    }
    batch
}

/// The weighted twin of an unweighted batch, weighting inserted edges
/// exactly as [`weighted`] weights base edges.
fn weighted_batch(batch: &DeltaBatch<Edge>) -> DeltaBatch<WEdge> {
    let mut out = DeltaBatch::new();
    for op in &batch.ops {
        out.ops.push(match op {
            DeltaOp::Insert(e) => {
                DeltaOp::Insert(WEdge::new(e.src(), e.dst(), edge_weight(e.src(), e.dst())))
            }
            DeltaOp::Delete { src, dst } => DeltaOp::Delete {
                src: *src,
                dst: *dst,
            },
        });
    }
    out
}

/// The merged both-direction delta view of `base` + `log` the
/// incremental engines repair over, plus its out-degrees.
fn merged_view(base: &EdgeList<Edge>, log: &DeltaLog<Edge>) -> (DeltaList<Edge>, Vec<u32>) {
    let (out, inc) = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Both)
        .sort_neighbors(true)
        .build(base)
        .into_parts();
    let view = DeltaList::new(out, inc, log);
    let out = view.out();
    let degrees = (0..out.num_vertices() as u32)
        .map(|v| out.degree(v) as u32)
        .collect();
    (view, degrees)
}

fn mismatch(
    graph: &str,
    algo: &'static str,
    variant: &str,
    threads: usize,
    detail: String,
) -> Mismatch {
    Mismatch {
        graph: graph.to_string(),
        algo,
        variant: variant.to_string(),
        threads,
        detail,
    }
}

fn ints_equal(got: &[u32], want: &[u32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        if x != y {
            return Err(format!("[{i}] got {x}, want {y}"));
        }
    }
    Ok(())
}

fn floats_close(got: &[f32], want: &[f32], tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    for (i, (&x, &y)) in got.iter().zip(want).enumerate() {
        if x == y {
            continue; // covers equal infinities
        }
        if !x.is_finite() || !y.is_finite() {
            return Err(format!("[{i}] got {x:?}, want {y:?}"));
        }
        let (a, b) = (x as f64, y as f64);
        if (a - b).abs() > tol * a.abs().max(b.abs()).max(1.0) {
            return Err(format!("[{i}] got {x:?}, want {y:?} (tol {tol:e})"));
        }
    }
    Ok(())
}

/// The three incremental engines, built and repaired under one pool.
struct Engines {
    threads: usize,
    pool: ThreadPool,
    pagerank: pagerank::IncrementalPagerank,
    wcc: wcc::IncrementalWcc,
    bfs: bfs::IncrementalBfs,
}

impl Engines {
    fn new(threads: usize, base: &EdgeList<Edge>, damping: f32) -> Self {
        let pool = ThreadPool::new(threads);
        let (view, degrees) = merged_view(base, &DeltaLog::new());
        let (pagerank, wcc, bfs) = with_pool(&pool, || {
            (
                pagerank::IncrementalPagerank::new(&view, &degrees, damping),
                wcc::IncrementalWcc::new(base),
                bfs::IncrementalBfs::new(&view, 0),
            )
        });
        Self {
            threads,
            pool,
            pagerank,
            wcc,
            bfs,
        }
    }
}

/// Runs the update oracle over `graphs`.
///
/// Per graph: keeps one [`DeltaGraph`] (the epoch-published mutable
/// form), one growing [`DeltaLog`] and, per thread count, the three
/// incremental engines alive across `cfg.batches` seeded batches,
/// checking after each batch and once more after compaction. Empty
/// graphs are skipped — there is nothing to mutate.
pub fn run_update_matrix(graphs: &[NamedGraph], cfg: &UpdateConfig) -> UpdateReport {
    let mut report = UpdateReport {
        checks_run: 0,
        mismatches: Vec::new(),
        seed: cfg.seed,
    };

    for named in graphs {
        let base = &named.graph;
        let nv = base.num_vertices();
        if nv == 0 {
            continue;
        }
        let name = &named.name;
        let mut rng = Rng(cfg.seed
            ^ name
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64)));

        let dgraph = DeltaGraph::new(base.clone());
        let mut log = DeltaLog::new();
        let damping = pagerank::PagerankConfig::default().damping;
        let mut engines: Vec<Engines> = cfg
            .thread_counts
            .iter()
            .map(|&threads| Engines::new(threads, base, damping))
            .collect();

        for batch_no in 0..cfg.batches {
            let merged_before = log.merge_into(base);
            let batch = random_batch(&mut rng, nv, merged_before.edges(), cfg.ops_per_batch);
            log.append(&batch);
            dgraph
                .apply(&batch)
                .expect("generated batches are in-bounds");
            let merged = log.merge_into(base);

            check_incremental(
                &mut report,
                name,
                batch_no,
                base,
                &log,
                &merged,
                &batch,
                damping,
                &mut engines,
            );
            check_variants(&mut report, name, base, &log, &merged, cfg);
        }

        // Compaction: the published snapshot must be the merged graph
        // at a bumped epoch, and the log of pending work must drain.
        let before = dgraph.epoch();
        let stats = dgraph.compact();
        let snapshot = dgraph.snapshot();
        report.checks_run += 1;
        if stats.epoch != before + 1 || snapshot.epoch != stats.epoch || dgraph.pending_ops() != 0 {
            report.mismatches.push(mismatch(
                name,
                "compact",
                "epoch",
                0,
                format!(
                    "epoch {} -> {} (snapshot {}), {} pending after compact",
                    before,
                    stats.epoch,
                    snapshot.epoch,
                    dgraph.pending_ops()
                ),
            ));
        }
        let merged = log.merge_into(base);
        report.checks_run += 1;
        if snapshot.edges.edges() != merged.edges() {
            report.mismatches.push(mismatch(
                name,
                "compact",
                "snapshot",
                0,
                format!(
                    "compacted snapshot has {} edges, merged log has {}",
                    snapshot.edges.num_edges(),
                    merged.num_edges()
                ),
            ));
        }
        // Post-compaction queries: BFS on the compacted snapshot equals
        // BFS on the merged graph (trivially the same input now — the
        // check guards the compaction path, not the algorithm).
        let snap_csr = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(&snapshot.edges);
        report.checks_run += 1;
        if let Err(detail) = ints_equal(
            &bfs::reference(snap_csr.out(), 0),
            &bfs::reference(
                CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
                    .sort_neighbors(true)
                    .build(&merged)
                    .out(),
                0,
            ),
        ) {
            report
                .mismatches
                .push(mismatch(name, "compact", "post-compaction bfs", 1, detail));
        }
    }
    report
}

/// Check 1: every set of incremental engines, under its own pool,
/// against serial references on the merged graph.
#[allow(clippy::too_many_arguments)]
fn check_incremental(
    report: &mut UpdateReport,
    name: &str,
    batch_no: usize,
    base: &EdgeList<Edge>,
    log: &DeltaLog<Edge>,
    merged: &EdgeList<Edge>,
    batch: &DeltaBatch<Edge>,
    damping: f32,
    engines: &mut [Engines],
) {
    let (view, degrees) = merged_view(base, log);
    let want_pr = pagerank::reference_converged(merged, &degrees, damping);
    let want_wcc = wcc::reference(merged);
    let merged_csr = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::Out)
        .sort_neighbors(true)
        .build(merged);
    let want_bfs = bfs::reference(merged_csr.out(), 0);

    for engines in engines {
        let Engines {
            threads,
            pool,
            pagerank,
            wcc,
            bfs,
        } = engines;
        let (pr_outcome, wcc_outcome, bfs_outcome) = with_pool(pool, || {
            (
                pagerank.apply(&view, &degrees, batch),
                wcc.apply(merged, batch),
                bfs.apply(&view, batch),
            )
        });
        let checks = [
            (
                "pagerank",
                pr_outcome,
                floats_close(&pagerank.ranks(), &want_pr, REORDER_TOL),
                "converged",
            ),
            (
                "wcc",
                wcc_outcome,
                ints_equal(wcc.labels(), &want_wcc),
                "union-find",
            ),
            (
                "bfs",
                bfs_outcome,
                ints_equal(bfs.level(), &want_bfs),
                "serial",
            ),
        ];
        for (algo, outcome, check, reference) in checks {
            report.checks_run += 1;
            if let Err(detail) = check {
                report.mismatches.push(mismatch(
                    name,
                    algo,
                    &format!("incremental/batch{batch_no}(fallback={})", outcome.fallback),
                    *threads,
                    format!("vs {reference} reference: {detail}"),
                ));
            }
        }
    }
}

/// Check 2: every `Layout::Delta` variant (base CSR + pending log
/// overlay) against the same algorithm from scratch on the merged
/// graph, across thread counts, directions and sync modes — optionally
/// under the seeded scheduler fault plan.
fn check_variants(
    report: &mut UpdateReport,
    name: &str,
    base: &EdgeList<Edge>,
    log: &DeltaLog<Edge>,
    merged: &EdgeList<Edge>,
    cfg: &UpdateConfig,
) {
    let wbase = weighted(base);
    let wlog = {
        let mut l = DeltaLog::new();
        l.append(&weighted_batch(&log.as_batch()));
        l
    };
    let wmerged = weighted(merged);
    let x = spmv_input(base.num_vertices());

    for &threads in &cfg.thread_counts {
        crate::on_pool(threads, cfg.faults, cfg.seed, || {
            let delta_g = PreparedGraph::new(base).sort_neighbors(true).deltas(log);
            let delta_w = PreparedGraph::new(&wbase)
                .sort_neighbors(true)
                .deltas(&wlog);
            let fresh_g = PreparedGraph::new(merged).sort_neighbors(true);
            let fresh_w = PreparedGraph::new(&wmerged).sort_neighbors(true);
            let ctx = ExecCtx::new(None);

            for id in supported_variants() {
                if id.layout != Layout::Delta {
                    continue;
                }
                let syncs: &[SyncMode] = if sync_matters(&id) {
                    &[SyncMode::Atomics, SyncMode::Locks]
                } else {
                    &[SyncMode::Atomics]
                };
                for &sync in syncs {
                    let params = RunParams {
                        root: 0,
                        pagerank: pagerank::PagerankConfig {
                            iterations: 5,
                            ..Default::default()
                        },
                        sync,
                        x: Some(&x),
                    };
                    let fresh_id = VariantId::new(id.algo, Layout::Adjacency, id.direction);
                    let (got, want) = if id.algo.needs_weights() {
                        (
                            run_variant(&id, &ctx, &delta_w, &params),
                            run_variant(&fresh_id, &ctx, &fresh_w, &params),
                        )
                    } else {
                        (
                            run_variant(&id, &ctx, &delta_g, &params),
                            run_variant(&fresh_id, &ctx, &fresh_g, &params),
                        )
                    };
                    let (got, want) = (
                        got.expect("delta variants must run").output,
                        want.expect("adjacency variants must run").output,
                    );
                    report.checks_run += 1;
                    let variant = format!(
                        "delta/{}{}",
                        id.direction.name(),
                        if sync == SyncMode::Locks {
                            "+locks"
                        } else {
                            ""
                        }
                    );
                    let check = compare_outputs(&got, &want);
                    if let Err(detail) = check {
                        report.mismatches.push(mismatch(
                            name,
                            id.algo.name(),
                            &variant,
                            threads,
                            format!("vs from-scratch recompute: {detail}"),
                        ));
                    }
                }
            }
        });
    }
}

/// Integer outputs compare exactly; float outputs within the reorder
/// tolerance (the delta overlay legitimately reorders accumulation
/// relative to a fresh CSR), except SSSP distances, which are
/// order-independent fixed points and must match exactly.
fn compare_outputs(got: &VariantOutput, want: &VariantOutput) -> Result<(), String> {
    match (got, want) {
        (VariantOutput::Bfs(a), VariantOutput::Bfs(b)) => ints_equal(&a.level, &b.level),
        (VariantOutput::Wcc(a), VariantOutput::Wcc(b)) => ints_equal(&a.label, &b.label),
        (VariantOutput::Sssp(a), VariantOutput::Sssp(b)) => floats_close(&a.dist, &b.dist, 0.0),
        (VariantOutput::Pagerank(a), VariantOutput::Pagerank(b)) => {
            floats_close(&a.ranks, &b.ranks, REORDER_TOL)
        }
        (VariantOutput::Spmv(a), VariantOutput::Spmv(b)) => floats_close(&a.y, &b.y, REORDER_TOL),
        _ => Err("output kind mismatch".to_string()),
    }
}
