//! `egraph` — the command-line driver of EverythingGraph-rs.
//!
//! ```text
//! egraph generate rmat --scale 20 --out graph.egr
//! egraph info graph.egr
//! egraph run bfs graph.egr --layout adj --flow push --strategy radix
//! egraph advise graph.egr --algo pagerank
//! ```

use std::process::ExitCode;

use egraph_cli::commands;

/// The tracking wrapper over the system allocator fills the per-phase
/// memory section of traces and the `egraph_alloc_*` metrics.
#[global_allocator]
static ALLOC: egraph_metrics::alloc::TrackingAlloc = egraph_metrics::alloc::TrackingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if !e.is::<commands::GateFailure>() {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
