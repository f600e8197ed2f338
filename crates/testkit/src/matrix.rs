//! The conformance matrix: every algorithm variant × every layout ×
//! every thread count, checked against two oracles.
//!
//! For each corpus graph the matrix runs every implemented technique
//! combination — edge-centric, vertex-centric push/pull/hybrid over
//! CSR, and grid — under scoped thread pools of each configured width,
//! and compares:
//!
//! 1. **against a serial analytic reference** (textbook BFS, union-find
//!    WCC, Dijkstra SSSP, power-iteration PageRank, serial SpMV):
//!    integer results must match bit-for-bit; float results within a
//!    per-variant tolerance (`0.0` meaning exactly equal);
//! 2. **against the same variant at one thread**: deterministic
//!    variants (single-writer, fixed accumulation order) must be
//!    bit-identical at every thread count; variants whose `f32`
//!    accumulation order legitimately depends on the schedule (atomic
//!    or locked push) get the documented tolerance instead.
//!
//! A literal `1e-9` relative bound is only meaningful for the
//! deterministic variants — they achieve `0.0`. Reordered `f32` sums
//! cannot meet `1e-9` even in principle (f32 epsilon is ~`1.2e-7`), so
//! those variants carry an explicit, wider tolerance. DESIGN.md §11
//! spells out the classification.

use egraph_core::algo::{als, bfs, pagerank, spmv, sssp, wcc};
use egraph_core::exec::ExecCtx;
use egraph_core::layout::{EdgeDirection, VertexLayout};
use egraph_core::preprocess::{CsrBuilder, Strategy};
use egraph_core::types::{Edge, EdgeList, WEdge};
use egraph_core::variant::{
    cross_thread_deterministic, run_variant, supported_variants, sync_matters, Algo, Layout,
    PreparedGraph, RunParams, SyncMode, VariantId, VariantOutput,
};

use crate::corpus::{spmv_input, weighted, NamedGraph};

/// Relative tolerance for float variants whose accumulation order is
/// schedule-dependent (atomic/locked push). See the module docs.
pub const REORDER_TOL: f64 = 1e-4;

/// Tolerance for deterministic float variants against the
/// *same-variant* single-thread baseline: exactly equal (which
/// trivially satisfies the 1e-9 requirement).
pub const EXACT: f64 = 0.0;

/// Matrix run parameters.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Thread counts to exercise; 1 is always run as the baseline.
    pub thread_counts: Vec<usize>,
    /// The corpus seed (used in failure messages so runs reproduce).
    pub seed: u64,
    /// Power iterations for the PageRank variants.
    pub pagerank_iterations: usize,
    /// Run every pool the matrix builds under the seeded scheduler
    /// fault plan (delayed workers), installed on that pool alone.
    pub faults: bool,
}

impl MatrixConfig {
    /// The quick-tier configuration for `seed`.
    pub fn quick(seed: u64) -> Self {
        Self {
            thread_counts: crate::QUICK_THREADS.to_vec(),
            seed,
            pagerank_iterations: 5,
            faults: false,
        }
    }

    /// The exhaustive-tier configuration for `seed`.
    pub fn exhaustive(seed: u64) -> Self {
        Self {
            thread_counts: crate::EXHAUSTIVE_THREADS.to_vec(),
            seed,
            pagerank_iterations: 10,
            faults: false,
        }
    }
}

/// One failed comparison.
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Corpus graph name.
    pub graph: String,
    /// Algorithm (`"bfs"`, `"pagerank"`, …).
    pub algo: &'static str,
    /// Technique combination (`"grid/push+locks"`, …).
    pub variant: String,
    /// Thread count of the failing run.
    pub threads: usize,
    /// Which oracle disagreed and how.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{} @ {} thread(s): {}",
            self.graph, self.algo, self.variant, self.threads, self.detail
        )
    }
}

/// The outcome of a matrix run.
#[derive(Debug)]
pub struct MatrixReport {
    /// Number of (graph, algo, variant, threads) combinations executed.
    pub combos_run: usize,
    /// Every failed comparison.
    pub mismatches: Vec<Mismatch>,
    /// The corpus seed, echoed for failure messages.
    pub seed: u64,
}

impl MatrixReport {
    /// Panics with a reproducible report if any combination mismatched.
    pub fn assert_clean(&self) {
        assert!(
            !self.mismatches.is_empty() || self.combos_run > 0,
            "conformance matrix ran no combinations"
        );
        if self.mismatches.is_empty() {
            return;
        }
        let mut msg = format!(
            "conformance matrix failed ({} of {} combinations; \
             reproduce with EGRAPH_TEST_SEED={:#x}):\n",
            self.mismatches.len(),
            self.combos_run,
            self.seed
        );
        for m in &self.mismatches {
            msg.push_str(&format!("  {m}\n"));
        }
        panic!("{msg}");
    }
}

/// A computed result: dense per-vertex integers or floats.
#[derive(Debug, Clone, PartialEq)]
enum Output {
    Ints(Vec<u32>),
    Floats(Vec<f32>),
}

/// One variant's result plus its comparison policy.
struct VariantOut {
    algo: &'static str,
    variant: String,
    /// Tolerance against the analytic reference (0.0 = exact).
    ref_tol: f64,
    /// Tolerance against the single-thread same-variant baseline.
    cross_tol: f64,
    output: Output,
}

impl VariantOut {
    fn ints(algo: &'static str, variant: String, v: Vec<u32>) -> Self {
        Self {
            algo,
            variant,
            ref_tol: EXACT,
            cross_tol: EXACT,
            output: Output::Ints(v),
        }
    }

    fn floats(
        algo: &'static str,
        variant: String,
        ref_tol: f64,
        cross_tol: f64,
        v: Vec<f32>,
    ) -> Self {
        Self {
            algo,
            variant,
            ref_tol,
            cross_tol,
            output: Output::Floats(v),
        }
    }
}

/// Analytic references for one graph, computed serially once.
struct References {
    bfs: Option<Vec<u32>>,
    wcc: Vec<u32>,
    sssp: Option<Vec<f32>>,
    pagerank: Vec<f32>,
    spmv: Vec<f32>,
}

/// Runs the full conformance matrix over `graphs`.
///
/// The single-thread baseline always runs first (with a fixed layout
/// strategy); every configured thread count is then compared against
/// both the analytic reference and that baseline. CSR construction
/// strategies rotate across thread counts (neighbor lists are sorted,
/// so all strategies produce the same canonical layout); grids always
/// build with count sort, whose within-cell edge order is the stable
/// input order regardless of worker count.
pub fn run_matrix(graphs: &[NamedGraph], cfg: &MatrixConfig) -> MatrixReport {
    let mut report = MatrixReport {
        combos_run: 0,
        mismatches: Vec::new(),
        seed: cfg.seed,
    };
    let pr_cfg = pagerank::PagerankConfig {
        iterations: cfg.pagerank_iterations,
        ..Default::default()
    };
    let csr_strategies = [Strategy::CountSort, Strategy::Dynamic, Strategy::RadixSort];

    for named in graphs {
        let g = &named.graph;
        let w = weighted(g);
        let x = spmv_input(g.num_vertices());
        let refs = compute_references(g, &w, &x, pr_cfg);

        let baseline = crate::on_pool(1, cfg.faults, cfg.seed, || {
            run_variants(g, &w, &x, pr_cfg, Strategy::CountSort)
        });
        for v in &baseline {
            report.combos_run += 1;
            check_reference(&mut report, &named.name, 1, v, &refs);
        }

        for (ti, &threads) in cfg.thread_counts.iter().enumerate() {
            if threads == 1 {
                continue; // already covered by the baseline run
            }
            let strategy = csr_strategies[ti % csr_strategies.len()];
            let outs = crate::on_pool(threads, cfg.faults, cfg.seed, || {
                run_variants(g, &w, &x, pr_cfg, strategy)
            });
            for v in &outs {
                report.combos_run += 1;
                check_reference(&mut report, &named.name, threads, v, &refs);
                let base = baseline
                    .iter()
                    .find(|b| b.algo == v.algo && b.variant == v.variant)
                    .expect("baseline ran the same variant set");
                if let Err(detail) = compare(&v.output, &base.output, v.cross_tol) {
                    report.mismatches.push(Mismatch {
                        graph: named.name.clone(),
                        algo: v.algo,
                        variant: v.variant.clone(),
                        threads,
                        detail: format!("vs 1-thread baseline: {detail}"),
                    });
                }
            }
        }
    }

    run_als(&mut report, cfg);
    report
}

/// Runs one variant on one graph under the current pool and checks it
/// against the serial reference: the matrix's first oracle, for a
/// caller that picked one combination (the §9 roadmap's picks).
pub fn check_variant(named: &NamedGraph, id: &VariantId, cfg: &MatrixConfig) -> MatrixReport {
    let mut report = MatrixReport {
        combos_run: 1,
        mismatches: Vec::new(),
        seed: cfg.seed,
    };
    let pr_cfg = pagerank::PagerankConfig {
        iterations: cfg.pagerank_iterations,
        ..Default::default()
    };
    let g = &named.graph;
    let w = weighted(g);
    let x = spmv_input(g.num_vertices());
    let refs = compute_references(g, &w, &x, pr_cfg);
    let params = RunParams {
        root: 0,
        pagerank: pr_cfg,
        sync: SyncMode::Atomics,
        x: Some(&x),
    };
    let ctx = ExecCtx::new(None);
    let run = if id.algo.needs_weights() {
        run_variant(id, &ctx, &PreparedGraph::new(&w), &params)
    } else {
        run_variant(id, &ctx, &PreparedGraph::new(g), &params)
    }
    .unwrap_or_else(|e| panic!("{id} on {}: {e}", named.name));
    let v = classify(id, SyncMode::Atomics, run.output);
    let threads = egraph_parallel::current_num_threads();
    check_reference(&mut report, &named.name, threads, &v, &refs);
    report
}

fn compute_references(
    g: &EdgeList<Edge>,
    w: &EdgeList<WEdge>,
    x: &[f32],
    pr_cfg: pagerank::PagerankConfig,
) -> References {
    let degrees: Vec<u32> = g.out_degrees().iter().map(|&d| d as u32).collect();
    let has_root = g.num_vertices() > 0;
    let bfs = has_root.then(|| {
        let csr = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Out).build(g);
        bfs::reference(csr.out(), 0)
    });
    References {
        bfs,
        wcc: wcc::reference(g),
        sssp: has_root.then(|| sssp::reference(w, 0)),
        pagerank: pagerank::reference(g, &degrees, pr_cfg),
        spmv: spmv::reference(w, x),
    }
}

fn check_reference(
    report: &mut MatrixReport,
    graph: &str,
    threads: usize,
    v: &VariantOut,
    refs: &References,
) {
    let reference: Option<Output> = match v.algo {
        "bfs" => refs.bfs.clone().map(Output::Ints),
        "wcc" => Some(Output::Ints(refs.wcc.clone())),
        "sssp" => refs.sssp.clone().map(Output::Floats),
        "pagerank" => Some(Output::Floats(refs.pagerank.clone())),
        "spmv" => Some(Output::Floats(refs.spmv.clone())),
        _ => None,
    };
    if let Some(reference) = reference {
        if let Err(detail) = compare(&v.output, &reference, v.ref_tol) {
            report.mismatches.push(Mismatch {
                graph: graph.to_string(),
                algo: v.algo,
                variant: v.variant.clone(),
                threads,
                detail: format!("vs serial reference: {detail}"),
            });
        }
    }
}

/// The matrix-facing name of one combination, e.g. `"adj/push+locks"`.
fn variant_name(id: &VariantId, sync: SyncMode) -> String {
    let mut name = format!("{}/{}", id.layout.name(), id.direction.name());
    if sync == SyncMode::Locks {
        name.push_str("+locks");
    }
    name
}

/// Classifies one completed run into its comparison policy (see the
/// module docs and DESIGN.md §11): integer results and SSSP distances
/// are exact; float results compare to the serial reference with the
/// reorder tolerance, and to the single-thread baseline exactly iff
/// [`cross_thread_deterministic`] says the schedule cannot reorder the
/// accumulation.
fn classify(id: &VariantId, sync: SyncMode, output: VariantOutput) -> VariantOut {
    let variant = variant_name(id, sync);
    let cross = if cross_thread_deterministic(id, sync) {
        EXACT
    } else {
        REORDER_TOL
    };
    match output {
        VariantOutput::Bfs(r) => VariantOut::ints("bfs", variant, r.level),
        VariantOutput::Wcc(r) => VariantOut::ints("wcc", variant, r.label),
        VariantOutput::Sssp(r) => VariantOut::floats("sssp", variant, EXACT, EXACT, r.dist),
        VariantOutput::Pagerank(r) => {
            VariantOut::floats("pagerank", variant, REORDER_TOL, cross, r.ranks)
        }
        VariantOutput::Spmv(r) => VariantOut::floats("spmv", variant, REORDER_TOL, cross, r.y),
    }
}

/// Runs every supported variant of every algorithm under the *current*
/// pool (install one with [`egraph_parallel::with_pool`] first).
/// Layouts are built lazily by [`PreparedGraph`] inside the scope so
/// preprocessing also runs under the pool. The variant set comes from
/// [`supported_variants`] — the matrix has no hand-written dispatch of
/// its own, so a combination added to `egraph-core` is conformance-
/// checked automatically.
fn run_variants(
    g: &EdgeList<Edge>,
    w: &EdgeList<WEdge>,
    x: &[f32],
    pr_cfg: pagerank::PagerankConfig,
    strategy: Strategy,
) -> Vec<VariantOut> {
    let nv = g.num_vertices();
    // Sorted neighbor lists make the CSR canonical: every construction
    // strategy and worker count yields byte-identical adjacencies, so
    // deterministic variants can demand bit-identical results. Grids
    // always build with count sort, whose within-cell edge order is the
    // stable input order regardless of worker count.
    let side = nv.clamp(1, 16);
    let prepared_g = PreparedGraph::new(g)
        .strategy(strategy)
        .grid_strategy(Strategy::CountSort)
        .sort_neighbors(true)
        .side(side);
    let prepared_w = PreparedGraph::new(w)
        .strategy(strategy)
        .grid_strategy(Strategy::CountSort)
        .sort_neighbors(true)
        .side(side);
    let ctx = ExecCtx::new(None);

    let mut outs = Vec::new();
    for id in supported_variants() {
        // Root-based algorithms need a vertex 0; grids need a non-empty
        // vertex range to partition.
        if nv == 0 && (matches!(id.algo, Algo::Bfs | Algo::Sssp) || id.layout == Layout::Grid) {
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
                pagerank: pr_cfg,
                sync,
                x: Some(x),
            };
            let run = if id.algo.needs_weights() {
                run_variant(&id, &ctx, &prepared_w, &params)
            } else {
                run_variant(&id, &ctx, &prepared_g, &params)
            }
            .expect("supported_variants() entries must run");
            outs.push(classify(&id, sync, run.output));
        }
    }

    // The SSSP kernel once more at an explicit bucket width, far from
    // the one the variants derive.
    if nv > 0 {
        let wcsr = CsrBuilder::new(strategy, EdgeDirection::Out)
            .sort_neighbors(true)
            .build(w);
        outs.push(VariantOut::floats(
            "sssp",
            "delta_stepping".to_string(),
            EXACT,
            EXACT,
            sssp::delta_stepping(&wcsr, 0, 0.25).dist,
        ));
    }

    outs
}

/// ALS runs once per thread count on the ratings graph; the
/// single-thread run is the oracle (per-vertex normal equations are
/// solved by a single writer in a fixed order → bit-identical).
fn run_als(report: &mut MatrixReport, cfg: &MatrixConfig) {
    let (ratings, num_users) = crate::corpus::ratings_graph(cfg.seed);
    let als_cfg = als::AlsConfig {
        rank: 4,
        lambda: 0.1,
        iterations: 2,
    };
    let run = |threads: usize| -> Vec<f32> {
        crate::on_pool(threads, cfg.faults, cfg.seed, || {
            let adj = CsrBuilder::new(Strategy::CountSort, EdgeDirection::Both)
                .sort_neighbors(true)
                .build(&ratings);
            als::als(adj.out(), adj.incoming(), num_users, als_cfg).factors
        })
    };
    let baseline = run(1);
    report.combos_run += 1;
    for &threads in &cfg.thread_counts {
        if threads == 1 {
            continue;
        }
        report.combos_run += 1;
        let got = run(threads);
        if let Err(detail) = compare(
            &Output::Floats(got),
            &Output::Floats(baseline.clone()),
            EXACT,
        ) {
            report.mismatches.push(Mismatch {
                graph: "netflix_like".to_string(),
                algo: "als",
                variant: "vertex".to_string(),
                threads,
                detail: format!("vs 1-thread baseline: {detail}"),
            });
        }
    }
}

/// Compares two outputs. `tol == 0.0` demands exact equality (bitwise
/// for integers; `==` for floats, so `inf == inf` passes and any NaN
/// fails). A positive `tol` accepts
/// `|a - b| <= tol * max(1, |a|, |b|)` per element.
fn compare(got: &Output, want: &Output, tol: f64) -> Result<(), String> {
    match (got, want) {
        (Output::Ints(a), Output::Ints(b)) => {
            if a.len() != b.len() {
                return Err(format!("length {} != {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if x != y {
                    return Err(format!("[{i}] got {x}, want {y}"));
                }
            }
            Ok(())
        }
        (Output::Floats(a), Output::Floats(b)) => {
            if a.len() != b.len() {
                return Err(format!("length {} != {}", a.len(), b.len()));
            }
            for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
                if !floats_close(x, y, tol) {
                    return Err(format!("[{i}] got {x:?}, want {y:?} (tol {tol:e})"));
                }
            }
            Ok(())
        }
        _ => Err("output kind mismatch (ints vs floats)".to_string()),
    }
}

fn floats_close(a: f32, b: f32, tol: f64) -> bool {
    if tol == 0.0 {
        return a == b;
    }
    if a == b {
        return true; // covers equal infinities
    }
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let (a, b) = (a as f64, b as f64);
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_close_handles_edges() {
        assert!(floats_close(f32::INFINITY, f32::INFINITY, 0.0));
        assert!(floats_close(f32::INFINITY, f32::INFINITY, 1e-4));
        assert!(!floats_close(f32::INFINITY, 1.0, 1e-4));
        assert!(!floats_close(f32::NAN, f32::NAN, 1e-4));
        assert!(floats_close(1.0, 1.0 + 1e-6, 1e-4));
        assert!(!floats_close(1.0, 1.1, 1e-4));
        assert!(!floats_close(1.0, 1.0 + 1e-6, 0.0));
    }

    #[test]
    fn compare_reports_first_divergence() {
        let a = Output::Ints(vec![1, 2, 3]);
        let b = Output::Ints(vec![1, 9, 3]);
        let err = compare(&a, &b, 0.0).unwrap_err();
        assert!(err.contains("[1]"), "{err}");
    }
}
