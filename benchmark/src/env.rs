//! The environment record every result file carries: enough to tell two
//! result files from different machines, toolchains or commits apart.

use std::fmt::Write as _;
use std::time::Instant;

use egraph_core::telemetry::json;

use crate::{spec, RunCfg};

/// What the machine and the build look like.
#[derive(Debug, Clone)]
pub struct Environment {
    /// The commit under test (`EGRAPH_BENCH_COMMIT`, set by `run.sh`
    /// inside a git checkout; `unknown` elsewhere).
    pub commit: String,
    /// `rustc --version` of the toolchain that built the harness.
    pub rustc: &'static str,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Global-pool threads.
    pub threads: usize,
    /// Threads of each serve engine.
    pub serve_threads: usize,
    /// Last-level cache size in bytes (`0` if sysfs does not say).
    pub llc_bytes: u64,
    /// Smallest positive step of the monotonic clock, ns.
    pub clock_resolution_ns: u64,
}

/// Largest cache of cpu0 according to sysfs.
fn llc_bytes() -> u64 {
    let parse = |text: &str| -> Option<u64> {
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last()? {
            b'K' => (&text[..text.len() - 1], 1 << 10),
            b'M' => (&text[..text.len() - 1], 1 << 20),
            b'G' => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        Some(digits.parse::<u64>().ok()? * scale)
    };
    (0..8)
        .filter_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .filter_map(|s| parse(&s))
        .max()
        .unwrap_or(0)
}

fn clock_resolution_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..1000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min((b - a).as_nanos() as u64);
    }
    best
}

impl Environment {
    /// Reads the environment of this process.
    pub fn capture(threads: usize) -> Self {
        Self {
            commit: std::env::var("EGRAPH_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
            rustc: env!("EGRAPH_BENCH_RUSTC"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            serve_threads: spec::serve_threads(threads),
            llc_bytes: llc_bytes(),
            clock_resolution_ns: clock_resolution_ns(),
        }
    }

    /// Whether a working set is large enough (4× the LLC) for a
    /// bandwidth or roofline reading to mean anything. None of the
    /// frozen workloads is; the harness says so and reports no bandwidth
    /// ratio.
    pub fn bandwidth_claim_allowed(&self, working_set_bytes: u64) -> bool {
        self.llc_bytes > 0 && working_set_bytes >= 4 * self.llc_bytes
    }

    fn claim_text(&self, working_set_bytes: u64) -> &'static str {
        if self.bandwidth_claim_allowed(working_set_bytes) {
            "working set >= 4x LLC"
        } else {
            "no bandwidth/roofline claim: working set < 4x LLC"
        }
    }

    /// The record as a JSON object body for a result file.
    pub fn to_json(&self, cfg: &RunCfg, working_set_bytes: u64) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"commit\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"nproc\": {}, \"threads\": {}, \
             \"serve_threads\": {}, \"rustc\": {}, \"llc_bytes\": {}, \"working_set_bytes\": {}, \
             \"clock_resolution_ns\": {}, \"bandwidth_claim\": {}",
            json::string(&self.commit),
            cfg.seed,
            cfg.seconds,
            cfg.quick,
            self.nproc,
            self.threads,
            self.serve_threads,
            json::string(self.rustc),
            self.llc_bytes,
            working_set_bytes,
            self.clock_resolution_ns,
            json::string(self.claim_text(working_set_bytes)),
        );
        out.push('}');
        out
    }

    /// The record as lines for the human report.
    pub fn describe(&self, cfg: &RunCfg, working_set_bytes: u64) -> String {
        format!(
            "commit {} | seed {} | {} s | nproc {} | threads {} (serve engines {}) | {}\n\
             LLC {} bytes | working set {} bytes | clock resolution {} ns | {}\n",
            self.commit,
            cfg.seed,
            cfg.seconds,
            self.nproc,
            self.threads,
            self.serve_threads,
            self.rustc,
            self.llc_bytes,
            working_set_bytes,
            self.clock_resolution_ns,
            self.claim_text(working_set_bytes)
        )
    }
}
