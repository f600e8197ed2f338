//! Rendering a [`RunTrace`]'s iteration telemetry as a human-readable
//! report: the engine behind `egraph explain`.
//!
//! The direction-optimization literature (Beamer's hybrid BFS, Ligra's
//! `|frontier edges| > |E|/20` rule) describes *why* an engine switches
//! between push and pull, but a finished run only leaves numbers
//! behind. This module reconstructs the narrative from the trace's
//! per-iteration records alone — no access to the graph or the kernel
//! is needed: a table of every step, a density sparkline showing the
//! frontier's rise and fall, and one English sentence per direction
//! switch quoting the observed load against the cutoff that justified
//! it.

use std::fmt::Write as _;

use crate::metrics::StepMode;
use crate::telemetry::{RunTrace, TraceIteration};

/// Unicode block elements from lowest to highest — the classic
/// eight-level sparkline alphabet.
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maps each value to a [`SPARK_LEVELS`] glyph, scaled to the maximum
/// of the series (an all-zero series renders as all-low).
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || !v.is_finite() {
                SPARK_LEVELS[0]
            } else {
                let idx = ((v / max) * (SPARK_LEVELS.len() - 1) as f64).round() as usize;
                SPARK_LEVELS[idx.min(SPARK_LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// One reconstructed direction switch.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionSwitch {
    /// Step index the engine switched *at* (the first step executed in
    /// the new direction).
    pub step: usize,
    /// Direction before the switch.
    pub from: StepMode,
    /// Direction after the switch.
    pub to: StepMode,
    /// English sentence explaining the switch from the decision log.
    pub sentence: String,
}

/// Reconstructs every push/pull switch in `trace` from its decision
/// log. Each switch quotes the observed load (frontier vertices +
/// frontier out-edges) against the recorded cutoff; forced records
/// (single-direction kernels) are reported as such rather than
/// attributed to the heuristic.
pub fn direction_switches(trace: &RunTrace) -> Vec<DirectionSwitch> {
    let mut switches = Vec::new();
    for w in trace.iterations.windows(2) {
        let (prev, cur) = (&w[0], &w[1]);
        let (p, c) = (&prev.stat, &cur.stat);
        if p.mode == c.mode {
            continue;
        }
        let d = c.decision;
        let relation = if d.says_pull() {
            "exceeds"
        } else {
            "fell below"
        };
        let sentence = if d.forced {
            format!(
                "step {}: direction forced to {} by the variant (observed load {}, cutoff {}).",
                cur.step,
                c.mode.as_str(),
                d.observed,
                d.cutoff,
            )
        } else {
            format!(
                "step {}: switched {} -> {} because the observed load {} ({} vertices + {} \
                 frontier edges) {} the cutoff {} (|E|/20 rule).",
                cur.step,
                p.mode.as_str(),
                c.mode.as_str(),
                d.observed,
                c.frontier_size,
                d.observed.saturating_sub(c.frontier_size),
                relation,
                d.cutoff,
            )
        };
        switches.push(DirectionSwitch {
            step: cur.step,
            from: p.mode,
            to: c.mode,
            sentence,
        });
    }
    switches
}

fn hardware_summary(iter: &TraceIteration) -> String {
    if iter.hardware.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = Vec::new();
    for key in ["cycles", "instructions", "llc_load_misses"] {
        if let Some(v) = iter.hardware.get(key) {
            parts.push(format!("{key}={v:.3e}"));
        }
    }
    if parts.is_empty() {
        // No headline counters available: show whatever the host gave.
        parts.extend(
            iter.hardware
                .iter()
                .take(2)
                .map(|(k, v)| format!("{k}={v:.3e}")),
        );
    }
    parts.join(" ")
}

/// Renders the full report: header, per-iteration table, density
/// sparkline, and the direction-switch narrative.
pub fn explain(trace: &RunTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} run, {} ({} iterations recorded)",
        trace.algorithm,
        trace.schema,
        trace.iterations.len()
    );
    for key in ["layout", "flow", "threads", "input"] {
        if let Some(v) = trace.config.get(key) {
            let _ = writeln!(out, "  {key}: {v}");
        }
    }
    if trace.iterations.is_empty() {
        let _ = writeln!(
            out,
            "\nno per-iteration records: the run recorded no steps."
        );
        return out;
    }

    let _ = writeln!(
        out,
        "\n{:>5} {:>5} {:>12} {:>12} {:>9} {:>10} {:>10} {:>10}  hw",
        "step", "mode", "frontier", "edges", "density", "observed", "cutoff", "seconds"
    );
    for iter in &trace.iterations {
        let r = &iter.stat;
        let _ = writeln!(
            out,
            "{:>5} {:>5} {:>12} {:>12} {:>9.4} {:>10} {:>10} {:>10.6}  {}",
            iter.step,
            r.mode.as_str(),
            r.frontier_size,
            r.edges_scanned,
            r.density,
            r.decision.observed,
            r.decision.cutoff,
            r.seconds,
            hardware_summary(iter),
        );
    }

    let densities: Vec<f64> = trace.iterations.iter().map(|i| i.stat.density).collect();
    let _ = writeln!(out, "\ndensity  {}", sparkline(&densities));
    let seconds: Vec<f64> = trace.iterations.iter().map(|i| i.stat.seconds).collect();
    let _ = writeln!(out, "seconds  {}", sparkline(&seconds));

    let switches = direction_switches(trace);
    if switches.is_empty() {
        let _ = writeln!(
            out,
            "\nno direction switches: every step ran {}.",
            trace
                .iterations
                .first()
                .map(|i| i.stat.mode.as_str())
                .unwrap_or("in one mode")
        );
    } else {
        let _ = writeln!(
            out,
            "\n{} direction switch{}:",
            switches.len(),
            if switches.len() == 1 { "" } else { "es" }
        );
        for s in &switches {
            let _ = writeln!(out, "  {}", s.sentence);
        }
    }
    for line in kernel_counters(trace) {
        let _ = writeln!(out, "\n{line}");
    }
    out
}

/// What the engine and the work-efficient kernels recorded about
/// themselves, one sentence per counter set the trace carries: how many
/// rounds were too small to split, why an SSSP run took the rounds it
/// did, and how little a WCC run had to do.
fn kernel_counters(trace: &RunTrace) -> Vec<String> {
    use crate::algo::{sssp, wcc};
    let get = |name: &str| trace.counters.get(name).copied();
    let mut lines = Vec::new();
    // Not "of M": a trace may also hold records no frontier round made
    // (union-find's label pass, the iterations of other jobs).
    if let Some(inline) = get(crate::engine::INLINE_ROUNDS) {
        lines.push(format!(
            "engine: {inline} rounds ran inline (load ≤ grain), on the calling thread \
             with no parallel region."
        ));
    }
    if let (Some(milli), Some(opened), Some(rebinned)) = (
        get(sssp::DELTA_MILLI),
        get(sssp::BUCKETS_OPENED),
        get(sssp::REBINNED),
    ) {
        // The counter saturates for an infinite width.
        let delta = if milli >= u64::MAX as f64 {
            "∞ (one bucket: frontier Bellman-Ford)".to_string()
        } else {
            format!("{}", milli / 1e3)
        };
        lines.push(format!(
            "sssp: bucket width Δ = {delta}; {} rounds drained {opened} distance buckets, \
             {rebinned} vertices re-binned from the overflow bucket.",
            trace.iterations.len()
        ));
    }
    if let (Some(unions), Some(steps)) = (get(wcc::UNIONS), get(wcc::FIND_STEPS)) {
        lines.push(format!(
            "wcc: one union-find hook pass and one label pass: {unions} unions, \
             {steps} path-halving hops."
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{DirectionDecision, IterStat};

    fn stat(mode: StepMode, observed: usize, decision: DirectionDecision) -> IterStat {
        IterStat {
            frontier_size: observed / 2,
            edges_scanned: observed,
            seconds: 0.001,
            mode,
            density: observed as f64 / 1000.0,
            decision,
        }
    }

    fn iter(step: usize, mode: StepMode, observed: usize, cutoff: usize) -> TraceIteration {
        let mut stat = stat(
            mode,
            observed,
            DirectionDecision::heuristic(observed, cutoff),
        );
        stat.seconds *= (step + 1) as f64;
        TraceIteration::new(step, stat)
    }

    fn switching_trace() -> RunTrace {
        let mut t = RunTrace::new("bfs");
        t.config.insert("layout".into(), "adj".into());
        t.config.insert("flow".into(), "push-pull".into());
        t.iterations.push(iter(0, StepMode::Push, 10, 50));
        t.iterations.push(iter(1, StepMode::Pull, 400, 50));
        t.iterations.push(iter(2, StepMode::Pull, 300, 50));
        t.iterations.push(iter(3, StepMode::Push, 20, 50));
        t
    }

    #[test]
    fn switches_are_reconstructed_with_both_directions() {
        let switches = direction_switches(&switching_trace());
        assert_eq!(switches.len(), 2);
        assert_eq!(switches[0].step, 1);
        assert_eq!(switches[0].from, StepMode::Push);
        assert_eq!(switches[0].to, StepMode::Pull);
        assert!(
            switches[0].sentence.contains("exceeds the cutoff 50"),
            "{}",
            switches[0].sentence
        );
        assert_eq!(switches[1].step, 3);
        assert!(
            switches[1].sentence.contains("fell below the cutoff 50"),
            "{}",
            switches[1].sentence
        );
    }

    #[test]
    fn forced_switches_say_so() {
        let mut t = RunTrace::new("bfs");
        for (step, (mode, observed)) in [(StepMode::Push, 6), (StepMode::Pull, 9)]
            .into_iter()
            .enumerate()
        {
            let decision = DirectionDecision::forced(observed, 50);
            t.iterations
                .push(TraceIteration::new(step, stat(mode, observed, decision)));
        }
        let switches = direction_switches(&t);
        assert_eq!(switches.len(), 1);
        assert!(
            switches[0].sentence.contains("forced to pull"),
            "{}",
            switches[0].sentence
        );
    }

    #[test]
    fn report_carries_table_sparkline_and_narrative() {
        let text = explain(&switching_trace());
        assert!(text.contains("bfs run"), "{text}");
        assert!(text.contains("flow: push-pull"), "{text}");
        assert!(text.contains("density  "), "{text}");
        // The dense middle maps to the top sparkline glyph.
        assert!(text.contains('█'), "{text}");
        assert!(text.contains("2 direction switches:"), "{text}");
        assert!(text.contains("switched push -> pull"), "{text}");
        assert!(text.contains("switched pull -> push"), "{text}");
    }

    #[test]
    fn kernel_counters_are_narrated_when_present() {
        let mut t = switching_trace();
        let text = explain(&t);
        assert!(!text.contains("bucket width") && !text.contains("inline"));
        t.counters.insert("engine.inline_rounds".into(), 3.0);
        t.counters.insert("sssp.delta_milli".into(), 2500.0);
        t.counters.insert("sssp.buckets_opened".into(), 7.0);
        t.counters.insert("sssp.rebinned".into(), 3.0);
        t.counters.insert("wcc.unions".into(), 41.0);
        t.counters.insert("wcc.find_steps".into(), 9.0);
        let text = explain(&t);
        assert!(text.contains("Δ = 2.5; "), "{text}");
        assert!(
            text.contains("drained 7 distance buckets, 3 vertices"),
            "{text}"
        );
        assert!(text.contains("41 unions, 9 path-halving hops"), "{text}");
        assert!(
            text.contains("engine: 3 rounds ran inline (load ≤ grain)"),
            "{text}"
        );
        t.counters
            .insert("sssp.delta_milli".into(), u64::MAX as f64);
        assert!(explain(&t).contains("Δ = ∞"));
    }

    #[test]
    fn empty_trace_reports_no_iterations() {
        let text = explain(&RunTrace::new("bfs"));
        assert!(text.contains("no per-iteration records"), "{text}");
    }

    #[test]
    fn single_mode_trace_reports_no_switches() {
        let mut t = RunTrace::new("pagerank");
        t.iterations.push(iter(0, StepMode::Pull, 100, 50));
        t.iterations.push(iter(1, StepMode::Pull, 100, 50));
        let text = explain(&t);
        assert!(
            text.contains("no direction switches: every step ran pull."),
            "{text}"
        );
    }

    #[test]
    fn sparkline_scales_to_max_and_survives_zeroes() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
    }
}
