//! Compression experiment (DESIGN.md §14): resident bytes per edge and
//! pull-kernel speed of the compressed CSR against the uncompressed
//! adjacency at RMAT 18 and 20 (`--scale`/`EGRAPH_SCALE` + 2 and + 4).
//!
//! For each scale the table reports both layouts' resident adjacency
//! bytes (offset tables + neighbor storage), the bytes-per-edge that
//! implies, the ccsr/adj ratio — the acceptance bar is ≤ 0.6 at
//! RMAT-20 — the peak heap of each build window, and best-of-N
//! PageRank-pull and BFS-pull times at 8 threads. PageRank ranks and
//! BFS levels are asserted bit-equal across layouts before any row is
//! written, so every timing in the CSV is for a verified-identical
//! answer.
//!
//! The binary installs the tracking allocator, so the build-peak
//! columns are real allocator peaks. With `--trace-out FILE` the
//! RMAT-20 PageRank-pull run on each layout is replayed under a trace
//! recorder and written as
//! `<stem>_adj.<ext>` / `<stem>_ccsr.<ext>`, ready for `egraph trace
//! diff` to compare phase peak-memory rows.

use egraph_bench::{fmt_ratio, fmt_secs, graphs, measure, reps, ExperimentCtx, ResultTable};
use egraph_core::exec::ExecCtx;
use egraph_core::layout::EdgeDirection;
use egraph_core::preprocess::{compress_sorted_csr, CsrBuilder, Strategy};
use egraph_core::telemetry::{RunTrace, TraceRecorder};
use egraph_core::variant::{
    Algo, Direction, Layout, PreparedGraph, RunParams, VariantId, VariantOutput,
};
use egraph_metrics::alloc;
use egraph_parallel::pool::ThreadPool;

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc;

/// The acceptance criterion runs at this thread count.
const THREADS: usize = 8;

fn main() {
    let ctx = ExperimentCtx::from_args();
    ctx.banner(
        "exp_compress",
        "compressed CSR: bytes/edge and pull-kernel speed vs adjacency",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("threads: {THREADS}; host cores: {cores}\n");
    if cores < THREADS {
        eprintln!(
            "note: only {cores} host core(s) for {THREADS} threads — decode \
             compute cannot hide behind parallel memory stalls, so the ccsr \
             speed columns will understate its bandwidth-bound advantage"
        );
    }

    let pool = ThreadPool::new(THREADS);
    let exec = ExecCtx::new(&pool);
    let mut table = ResultTable::new(
        "compress_memory_speed",
        &[
            "scale",
            "vertices",
            "edges",
            "layout",
            "resident_bytes",
            "bytes_per_edge",
            "vs_adj_ratio",
            "build_peak_bytes",
            "pagerank_pull_s",
            "bfs_pull_s",
        ],
    );

    // RMAT 18 and 20 under the default --scale 16.
    for scale in [ctx.scale + 2, ctx.scale + 4] {
        let graph = graphs::rmat(scale);
        let root = graphs::best_root(&graph);
        println!(
            "RMAT{scale}: {} vertices, {} edges",
            graph.num_vertices(),
            graph.num_edges()
        );

        // Pull kernels read the in-adjacency; measure exactly the
        // arrays they traverse. Neighbor sorting is what makes the
        // delta encoding work, so both builds sort.
        let w = alloc::window("adj");
        let csr = CsrBuilder::new(Strategy::RadixSort, EdgeDirection::In)
            .sort_neighbors(true)
            .build(&graph);
        let adj_peak = w.finish().peak_bytes;
        let adj_bytes = csr.resident_bytes();

        let w = alloc::window("ccsr");
        let ccsr = compress_sorted_csr(&csr);
        let ccsr_peak = w.finish().peak_bytes;
        let ccsr_bytes = ccsr.resident_bytes();
        drop(ccsr);
        drop(csr);

        // Timed runs go through the unified resolver so layout builds,
        // caching and instrumentation match what `egraph run` does.
        let prepare = || PreparedGraph::new(&graph).sort_neighbors(true);
        let pr_params = RunParams::default();
        let bfs_params = RunParams {
            root,
            ..RunParams::default()
        };
        let pr_adj_id = VariantId::new(Algo::Pagerank, Layout::Adjacency, Direction::Pull);
        let pr_ccsr_id = VariantId::new(Algo::Pagerank, Layout::Ccsr, Direction::Pull);
        let bfs_adj_id = VariantId::new(Algo::Bfs, Layout::Adjacency, Direction::Pull);
        let bfs_ccsr_id = VariantId::new(Algo::Bfs, Layout::Ccsr, Direction::Pull);

        let time = |id, params| measure(&exec, prepare, &id, params, reps());
        let (pr_adj, pr_ccsr) = (time(pr_adj_id, &pr_params), time(pr_ccsr_id, &pr_params));
        let (bfs_adj, bfs_ccsr) = (
            time(bfs_adj_id, &bfs_params),
            time(bfs_ccsr_id, &bfs_params),
        );

        // Conformance before timing rows: both layouts decode to the
        // same sorted adjacency, so deterministic pull kernels must
        // agree bit-for-bit.
        match (&pr_adj.output, &pr_ccsr.output) {
            (VariantOutput::Pagerank(a), VariantOutput::Pagerank(c)) => {
                assert_eq!(a.ranks, c.ranks, "RMAT{scale}: ccsr PageRank diverged");
            }
            _ => unreachable!("pagerank variants return ranks"),
        }
        match (&bfs_adj.output, &bfs_ccsr.output) {
            (VariantOutput::Bfs(a), VariantOutput::Bfs(c)) => {
                assert_eq!(a.level, c.level, "RMAT{scale}: ccsr BFS diverged");
            }
            _ => unreachable!("bfs variants return levels"),
        }

        let ne = graph.num_edges() as f64;
        let mut row = |layout: &str, bytes: u64, peak: u64, pr_s: f64, bfs_s: f64| {
            table.add_row(vec![
                scale.to_string(),
                graph.num_vertices().to_string(),
                graph.num_edges().to_string(),
                layout.to_string(),
                bytes.to_string(),
                format!("{:.2}", bytes as f64 / ne),
                fmt_ratio(bytes as f64 / adj_bytes as f64),
                peak.to_string(),
                fmt_secs(pr_s),
                fmt_secs(bfs_s),
            ]);
        };
        let (pr_adj_s, pr_ccsr_s) = (pr_adj.algorithm_seconds, pr_ccsr.algorithm_seconds);
        let (bfs_adj_s, bfs_ccsr_s) = (bfs_adj.algorithm_seconds, bfs_ccsr.algorithm_seconds);
        row("adj", adj_bytes, adj_peak, pr_adj_s, bfs_adj_s);
        row("ccsr", ccsr_bytes, ccsr_peak, pr_ccsr_s, bfs_ccsr_s);
        println!(
            "  resident bytes: adj {adj_bytes}, ccsr {ccsr_bytes} ({}); \
             pagerank-pull {} vs {}, bfs-pull {} vs {}",
            fmt_ratio(ccsr_bytes as f64 / adj_bytes as f64),
            fmt_secs(pr_adj_s),
            fmt_secs(pr_ccsr_s),
            fmt_secs(bfs_adj_s),
            fmt_secs(bfs_ccsr_s),
        );

        // Trace evidence: replay the largest scale's PageRank-pull on
        // each layout under a trace recorder, one trace
        // file per layout, so `egraph trace diff <adj> <ccsr>` surfaces
        // the phase.*.peak_bytes rows of the build and the run. Each
        // replay runs on a pool built after its recorder's counters
        // open, so they cover its workers.
        if ctx.tracing() && scale == ctx.scale + 4 {
            for (layout, id) in [("adj", pr_adj_id), ("ccsr", pr_ccsr_id)] {
                let recorder = TraceRecorder::with_hardware_counters();
                let traced_pool = ThreadPool::new(THREADS);
                traced_pool.counters().enable();
                let traced = ExecCtx::new(&traced_pool).recorder(&recorder);
                measure(&traced, prepare, &id, &pr_params, 1);
                let mut trace = RunTrace::new("pagerank");
                trace
                    .config
                    .insert("experiment".into(), "exp_compress".into());
                trace.config.insert("layout".into(), layout.into());
                trace.config.insert("scale".into(), scale.to_string());
                trace.config.insert("threads".into(), THREADS.to_string());
                trace.absorb(&recorder);
                trace.absorb_pool(&traced_pool.counters().snapshot());
                let suffixed = ExperimentCtx {
                    trace_out: ctx.trace_out.as_ref().map(|p| {
                        let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("json");
                        p.with_extension(format!("{layout}.{ext}"))
                    }),
                    ..ctx.clone()
                };
                suffixed.save_trace(&trace);
            }
        }
    }

    table.print();
    println!();
    println!(
        "expected shape: ccsr resident bytes <= 0.6x adj at RMAT-20; \
         PageRank pull on ccsr matches or beats adj at {THREADS} \
         threads when the pull loop is memory-bandwidth-bound (one thread \
         per physical core). On fewer cores the serial decode cost \
         (~4 ns/edge here) is exposed instead of hidden behind DRAM stalls."
    );
    ctx.save(&table);
}
