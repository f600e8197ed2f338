//! Comparing two [`RunTrace`] documents: the regression gate behind
//! `egraph trace diff`.
//!
//! The paper's whole argument rests on *phase-attributed* measurement —
//! a layout that wins the algorithm phase can lose end-to-end to its
//! pre-processing cost (§2). The same discipline applies to guarding a
//! codebase against performance regressions: a diff that only checks
//! total time hides a pre-processing slowdown behind an algorithm
//! speedup. This module therefore compares traces phase by phase (each
//! [`PhaseProfile`]'s seconds, hardware LLC miss ratio and peak memory,
//! plus the sum of the phases) and flags each metric independently.
//!
//! Time metrics gate on a *relative* slowdown above a caller-chosen
//! threshold, with an absolute floor (`min_seconds`) so that a 2 ms
//! phase jittering to 3 ms does not fail a build. Miss ratios gate on
//! the same relative rule. Raw hardware counts and run counters are
//! reported for context but never gate — they scale with the input, not
//! with code quality.

use crate::telemetry::{CounterKind, PhaseProfile, RunTrace};

/// Phases that legitimately come and go between runs. `compact`
/// ([`crate::exec::PHASE_COMPACT`]) only exists when a run merged a
/// delta log into a fresh snapshot, so a baseline recorded before any
/// updates carries it at zero seconds — the "appeared from zero" rule
/// must not turn the candidate's first compaction into a regression —
/// neither on its own row nor through the sum of the phases. Optional
/// phases still gate on relative slowdown once both traces spend real
/// time in them.
pub const OPTIONAL_PHASES: &[&str] = &["compact"];

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Metric label, e.g. `"phase.algorithm.seconds"` or
    /// `"phase.load.llc_miss_ratio(hw)"`.
    pub metric: String,
    /// Value in the old (baseline) trace.
    pub old: f64,
    /// Value in the new (candidate) trace.
    pub new: f64,
    /// Whether this metric participates in the regression gate.
    pub gating: bool,
    /// Whether this row regressed beyond the threshold.
    pub regressed: bool,
}

impl DiffRow {
    /// Relative change in percent (positive = the new run is bigger).
    /// Infinite when the baseline was zero and the candidate is not;
    /// NaN when either side is not a finite number (a corrupt or
    /// partial trace), so callers can render "n/a" instead of
    /// propagating garbage arithmetic.
    pub fn delta_pct(&self) -> f64 {
        if !self.old.is_finite() || !self.new.is_finite() {
            return f64::NAN;
        }
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.new - self.old) / self.old * 100.0
        }
    }
}

/// The comparison of two traces.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceDiff {
    /// Every compared metric, gating rows first.
    pub rows: Vec<DiffRow>,
    /// Human-readable description of each regression.
    pub regressions: Vec<String>,
}

impl TraceDiff {
    /// Whether any gating metric regressed beyond the threshold.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }
}

/// Comparison tuning for [`diff_traces`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative slowdown (percent) above which a gating metric
    /// regresses.
    pub threshold_pct: f64,
    /// Time metrics where both runs stayed under this many seconds are
    /// never flagged — sub-noise phases jitter by large percentages.
    pub min_seconds: f64,
    /// Memory metrics where both runs stayed under this many bytes are
    /// never flagged — allocator noise dominates tiny footprints.
    pub min_bytes: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            threshold_pct: 10.0,
            min_seconds: 1e-3,
            min_bytes: (1u64 << 20) as f64,
        }
    }
}

/// Label of the row comparing the sum of each trace's phase seconds —
/// the end-to-end time of the run as its phases recorded it.
pub const PHASES_TOTAL: &str = "phases.total_seconds";

/// Compares `new` against the `old` baseline.
///
/// Gating metrics: the sum of the phases' seconds
/// ([`PHASES_TOTAL`]), each phase present in both traces — its wall
/// seconds, its hardware LLC miss ratio (when both carry one) and its
/// peak bytes (when both tracked allocations) — and the iteration count
/// and direction flips, and the `serve.latency.*_seconds` percentile
/// counters both traces carry (which only `exp_serve_latency` writes).
/// Everything else (hardware counts, other run counters) is
/// informational.
pub fn diff_traces(old: &RunTrace, new: &RunTrace, opts: &DiffOptions) -> TraceDiff {
    let mut diff = TraceDiff::default();

    // Both closures are total over f64: non-finite inputs (corrupt or
    // partial traces) never gate, and a metric appearing from a zero
    // baseline — where the relative rule would divide by zero — gates
    // explicitly instead of slipping through.
    let time_regressed = |old_v: f64, new_v: f64| {
        if !old_v.is_finite() || !new_v.is_finite() {
            return false;
        }
        if old_v.max(new_v) < opts.min_seconds {
            return false;
        }
        if old_v <= 0.0 {
            // A phase that was absent (zero seconds) in the baseline
            // and now costs real time is an infinite relative slowdown.
            return new_v >= opts.min_seconds;
        }
        new_v > old_v * (1.0 + opts.threshold_pct / 100.0)
    };
    let ratio_regressed = |old_v: f64, new_v: f64| {
        if !old_v.is_finite() || !new_v.is_finite() {
            return false;
        }
        if old_v <= 0.0 {
            return new_v > 0.0;
        }
        new_v > old_v * (1.0 + opts.threshold_pct / 100.0)
    };
    let bytes_regressed = |old_v: f64, new_v: f64| {
        if !old_v.is_finite() || !new_v.is_finite() {
            return false;
        }
        if old_v.max(new_v) < opts.min_bytes {
            return false;
        }
        new_v > old_v * (1.0 + opts.threshold_pct / 100.0)
    };

    // An optional phase the baseline spent no time in is exempt: it
    // neither gates on its own row nor counts towards the candidate's
    // total.
    let exempt = |phase: &PhaseProfile| {
        OPTIONAL_PHASES.contains(&phase.name.as_str())
            && old
                .phases
                .iter()
                .find(|p| p.name == phase.name)
                .is_none_or(|p| p.seconds <= 0.0)
    };
    let old_total: f64 = old.phases.iter().map(|p| p.seconds).sum();
    let new_total: f64 = (new.phases.iter())
        .filter(|p| !exempt(p))
        .map(|p| p.seconds)
        .sum();
    push_row(
        &mut diff,
        PHASES_TOTAL.to_string(),
        old_total,
        new_total,
        true,
        time_regressed(old_total, new_total),
        "s",
    );

    // Iteration telemetry. Two derived metrics gate:
    //
    // * `iterations.count` — convergence regressions (a kernel change
    //   that makes BFS take 40 levels instead of 8) hide inside the
    //   relative time rule when each level got cheaper. The count gates
    //   on the relative threshold with an absolute slack of 2 steps, so
    //   data-dependent one-off levels never trip it.
    // * `iterations.direction_flips` — a healthy direction-optimizing
    //   run switches push→pull→push a handful of times; a mistuned
    //   cutoff "flaps" every step. More than one extra flip against the
    //   baseline is a decision-logic regression, no matter how fast the
    //   run was.
    //
    // A baseline without iteration records (a run that recorded no
    // steps) leaves the candidate's reported for context only.
    if new.iterations.is_empty() || old.iterations.is_empty() {
        if !new.iterations.is_empty() {
            for (metric, value) in [
                ("iterations.count", new.iterations.len() as f64),
                ("iterations.direction_flips", new.direction_flips() as f64),
            ] {
                diff.rows.push(DiffRow {
                    metric: metric.to_string(),
                    old: 0.0,
                    new: value,
                    gating: false,
                    regressed: false,
                });
            }
        }
    } else {
        let (old_n, new_n) = (old.iterations.len() as f64, new.iterations.len() as f64);
        let count_regressed =
            new_n > old_n * (1.0 + opts.threshold_pct / 100.0) && new_n > old_n + 2.0;
        push_row(
            &mut diff,
            "iterations.count".to_string(),
            old_n,
            new_n,
            true,
            count_regressed,
            "",
        );
        let (old_f, new_f) = (old.direction_flips() as f64, new.direction_flips() as f64);
        push_row(
            &mut diff,
            "iterations.direction_flips".to_string(),
            old_f,
            new_f,
            true,
            new_f > old_f + 1.0,
            "",
        );
    }

    // Phases, matched by name; a phase present on only one side is
    // reported but cannot gate (there is nothing to compare).
    for new_phase in &new.phases {
        let Some(old_phase) = old.phases.iter().find(|p| p.name == new_phase.name) else {
            diff.rows.push(DiffRow {
                metric: format!("phase.{}.seconds", new_phase.name),
                old: 0.0,
                new: new_phase.seconds,
                gating: false,
                regressed: false,
            });
            continue;
        };
        let gates = !exempt(new_phase);
        push_row(
            &mut diff,
            format!("phase.{}.seconds", new_phase.name),
            old_phase.seconds,
            new_phase.seconds,
            gates,
            gates && time_regressed(old_phase.seconds, new_phase.seconds),
            "s",
        );
        if let (Some(old_r), Some(new_r)) = (
            old_phase.hardware_llc_miss_ratio(),
            new_phase.hardware_llc_miss_ratio(),
        ) {
            push_row(
                &mut diff,
                format!("phase.{}.llc_miss_ratio(hw)", new_phase.name),
                old_r,
                new_r,
                true,
                ratio_regressed(old_r, new_r),
                "",
            );
        }
        // Memory: peak bytes gate, but only when both runs
        // actually tracked allocations — an untracked build reports a
        // zero peak and must not fake an "appeared from zero"
        // regression against a tracked one (or vice versa).
        if let (Some(old_m), Some(new_m)) = (&old_phase.memory, &new_phase.memory) {
            let (old_peak, new_peak) = (old_m.peak_bytes as f64, new_m.peak_bytes as f64);
            let comparable = old_peak > 0.0 && new_peak > 0.0;
            push_row(
                &mut diff,
                format!("phase.{}.peak_bytes", new_phase.name),
                old_peak,
                new_peak,
                comparable,
                comparable && bytes_regressed(old_peak, new_peak),
                "B",
            );
            for (field, old_v, new_v) in [
                (
                    "allocated_bytes",
                    old_m.allocated_bytes as f64,
                    new_m.allocated_bytes as f64,
                ),
                (
                    "end_rss_bytes",
                    old_m.end_rss_bytes as f64,
                    new_m.end_rss_bytes as f64,
                ),
            ] {
                diff.rows.push(DiffRow {
                    metric: format!("phase.{}.{field}", new_phase.name),
                    old: old_v,
                    new: new_v,
                    gating: false,
                    regressed: false,
                });
            }
        }
        // Raw counter deltas: context only.
        for kind in CounterKind::ALL {
            let key = kind.name();
            if let (Some(old_v), Some(new_v)) =
                (old_phase.hardware.get(key), new_phase.hardware.get(key))
            {
                diff.rows.push(DiffRow {
                    metric: format!("phase.{}.{key}", new_phase.name),
                    old: *old_v,
                    new: *new_v,
                    gating: false,
                    regressed: false,
                });
            }
        }
    }

    // Run counters shared by both traces: context only — except serve
    // latency percentiles, which gate like phase times.
    for (key, new_v) in &new.counters {
        if let Some(old_v) = old.counters.get(key) {
            let gates = key.starts_with("serve.latency.") && key.ends_with("_seconds");
            if gates {
                push_row(
                    &mut diff,
                    format!("counter.{key}"),
                    *old_v,
                    *new_v,
                    true,
                    time_regressed(*old_v, *new_v),
                    "s",
                );
            } else {
                diff.rows.push(DiffRow {
                    metric: format!("counter.{key}"),
                    old: *old_v,
                    new: *new_v,
                    gating: false,
                    regressed: false,
                });
            }
        }
    }

    diff
}

fn push_row(
    diff: &mut TraceDiff,
    metric: String,
    old: f64,
    new: f64,
    gating: bool,
    regressed: bool,
    unit: &str,
) {
    if regressed {
        let pct = if old > 0.0 {
            (new - old) / old * 100.0
        } else {
            f64::INFINITY
        };
        let pct_str = if pct.is_finite() {
            format!("+{pct:.1}%")
        } else {
            "appeared from zero".to_string()
        };
        diff.regressions.push(format!(
            "{metric}: {old:.6}{unit} -> {new:.6}{unit} ({pct_str})"
        ));
    }
    diff.rows.push(DiffRow {
        metric,
        old,
        new,
        gating,
        regressed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{DirectionDecision, IterStat, StepMode};
    use crate::telemetry::TraceIteration;

    fn phase(name: &str, seconds: f64) -> PhaseProfile {
        PhaseProfile {
            name: name.into(),
            seconds,
            ..PhaseProfile::default()
        }
    }

    /// A half-second load phase, then an algorithm phase of
    /// `algorithm_secs` with LLC counters.
    fn trace_with(algorithm_secs: f64, miss_ratio_pct: u64) -> RunTrace {
        let mut t = RunTrace::new("bfs");
        let mut algorithm = phase("algorithm", algorithm_secs);
        algorithm.hardware.insert("llc_loads".into(), 100.0);
        algorithm
            .hardware
            .insert("llc_load_misses".into(), miss_ratio_pct as f64);
        t.phases = vec![phase("load", 0.5), algorithm];
        t.counters.insert("pool.steals".into(), 3.0);
        t
    }

    #[test]
    fn identical_traces_do_not_regress() {
        let t = trace_with(1.0, 20);
        let diff = diff_traces(&t, &t, &DiffOptions::default());
        assert!(!diff.has_regressions());
        assert!(diff.rows.iter().all(|r| !r.regressed));
        assert!(diff.rows.iter().any(|r| r.metric == PHASES_TOTAL));
        assert!(diff
            .rows
            .iter()
            .any(|r| r.metric == "phase.algorithm.llc_miss_ratio(hw)"));
        assert!(diff.rows.iter().any(|r| r.metric == "counter.pool.steals"));
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let old = trace_with(1.0, 20);
        let new = trace_with(1.5, 20);
        let diff = diff_traces(&old, &new, &DiffOptions::default());
        assert!(diff.has_regressions());
        let metrics: Vec<&str> = diff
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.metric.as_str())
            .collect();
        // A phase slowed 1.5x gates on its own row and on the total.
        assert_eq!(metrics, ["phases.total_seconds", "phase.algorithm.seconds"]);
        let total = diff.rows.iter().find(|r| r.metric == PHASES_TOTAL).unwrap();
        assert_eq!((total.old, total.new), (1.5, 2.0));
    }

    /// The rows of a two-phase trace with nothing else recorded: one
    /// total, then each phase's seconds. A second copy of the phase
    /// times (a `breakdown.*` row) coming back fails this.
    #[test]
    fn a_two_phase_trace_diffs_to_one_total_and_its_phase_rows() {
        let mut t = RunTrace::new("bfs");
        t.phases = vec![phase("preprocess", 0.25), phase("algorithm", 0.5)];
        let diff = diff_traces(&t, &t, &DiffOptions::default());
        let rows: Vec<(&str, f64, bool)> = (diff.rows.iter())
            .map(|r| (r.metric.as_str(), r.new, r.gating))
            .collect();
        assert_eq!(
            rows,
            [
                ("phases.total_seconds", 0.75, true),
                ("phase.preprocess.seconds", 0.25, true),
                ("phase.algorithm.seconds", 0.5, true),
            ]
        );
    }

    #[test]
    fn slowdown_within_threshold_passes() {
        let old = trace_with(1.0, 20);
        let new = trace_with(1.05, 20);
        assert!(!diff_traces(&old, &new, &DiffOptions::default()).has_regressions());
        // ...but a tighter threshold flags it.
        let tight = DiffOptions {
            threshold_pct: 2.0,
            ..DiffOptions::default()
        };
        assert!(diff_traces(&old, &new, &tight).has_regressions());
    }

    #[test]
    fn sub_noise_phases_never_gate() {
        let old = trace_with(0.0001, 20);
        let new = trace_with(0.0005, 20); // 5x, but both under min_seconds
        assert!(!diff_traces(&old, &new, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn miss_ratio_increase_regresses() {
        let old = trace_with(1.0, 20);
        let new = trace_with(1.0, 40);
        let diff = diff_traces(&old, &new, &DiffOptions::default());
        let metrics: Vec<&str> = diff
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(metrics, ["phase.algorithm.llc_miss_ratio(hw)"]);
    }

    #[test]
    fn serve_latency_counters_gate_when_both_traces_carry_them() {
        let with_p99 = |seconds: f64| {
            let mut t = trace_with(1.0, 20);
            t.counters
                .insert("serve.latency.p99_seconds".into(), seconds);
            t
        };
        let (old, new) = (with_p99(0.010), with_p99(0.020));
        // A doubled p99 gates like a phase time.
        let diff = diff_traces(&old, &new, &DiffOptions::default());
        assert!(diff.has_regressions());
        assert!(diff
            .rows
            .iter()
            .any(|r| r.metric == "counter.serve.latency.p99_seconds" && r.gating && r.regressed));
        // Other counters (pool.steals) remain informational.
        assert!(diff
            .rows
            .iter()
            .any(|r| r.metric == "counter.pool.steals" && !r.gating));
        // A percentile on only one side has nothing to compare: the
        // shared counters are reported, and nothing gates.
        let batch = trace_with(1.0, 20);
        for (old, new) in [(&batch, &new), (&new, &batch)] {
            let diff = diff_traces(old, new, &DiffOptions::default());
            assert!(!diff.has_regressions(), "{:?}", diff.regressions);
            assert!(!diff.rows.iter().any(|r| r.metric.contains("serve.latency")));
            assert!(diff.rows.iter().any(|r| r.metric == "counter.pool.steals"));
        }
        // Sub-noise serve latencies never gate.
        let (old, new) = (with_p99(1e-5), with_p99(5e-5));
        assert!(!diff_traces(&old, &new, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn raw_counts_are_informational_only() {
        let old = trace_with(1.0, 20);
        let mut new = trace_with(1.0, 20);
        // Doubling cycle counts alone (e.g. a bigger input) must not gate.
        new.phases[1].hardware.insert("cycles".into(), 2.0e9);
        let mut old2 = old.clone();
        old2.phases[1].hardware.insert("cycles".into(), 1.0e9);
        let diff = diff_traces(&old2, &new, &DiffOptions::default());
        assert!(!diff.has_regressions());
        assert!(diff
            .rows
            .iter()
            .any(|r| r.metric == "phase.algorithm.cycles" && !r.gating));
    }

    fn trace_with_peak(peak_bytes: u64) -> RunTrace {
        let mut t = trace_with(1.0, 20);
        t.phases[1].memory = Some(crate::telemetry::PhaseMemory {
            allocated_bytes: peak_bytes * 2,
            freed_bytes: peak_bytes,
            peak_bytes,
            end_rss_bytes: peak_bytes + (1 << 20),
        });
        t
    }

    #[test]
    fn peak_memory_regression_beyond_threshold_gates() {
        let old = trace_with_peak(100 << 20);
        let new = trace_with_peak(150 << 20);
        let diff = diff_traces(&old, &new, &DiffOptions::default());
        assert!(diff.has_regressions());
        let row = diff
            .rows
            .iter()
            .find(|r| r.metric == "phase.algorithm.peak_bytes")
            .expect("peak row present");
        assert!(row.gating && row.regressed);
        // Allocation totals and RSS only provide context.
        for metric in [
            "phase.algorithm.allocated_bytes",
            "phase.algorithm.end_rss_bytes",
        ] {
            let r = diff.rows.iter().find(|r| r.metric == metric).unwrap();
            assert!(!r.gating && !r.regressed, "{metric} must not gate");
        }
    }

    #[test]
    fn peak_memory_within_threshold_passes() {
        let old = trace_with_peak(100 << 20);
        let new = trace_with_peak(105 << 20);
        assert!(!diff_traces(&old, &new, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn untracked_zero_peaks_never_gate() {
        // A binary with the tracking allocator vs one without (any
        // program that links the library but not the allocator): one
        // side's peak is 0.
        let tracked = trace_with_peak(100 << 20);
        let untracked = trace_with_peak(0);
        for (old, new) in [(&tracked, &untracked), (&untracked, &tracked)] {
            let diff = diff_traces(old, new, &DiffOptions::default());
            assert!(
                !diff.has_regressions(),
                "zero-peak side must disarm the gate: {:?}",
                diff.regressions
            );
            let row = diff
                .rows
                .iter()
                .find(|r| r.metric == "phase.algorithm.peak_bytes")
                .expect("row still reported for context");
            assert!(!row.gating);
        }
    }

    #[test]
    fn tiny_footprints_below_min_bytes_never_gate() {
        let old = trace_with_peak(100 << 10); // 100 KiB
        let new = trace_with_peak(500 << 10); // 5x, but both < 1 MiB
        assert!(!diff_traces(&old, &new, &DiffOptions::default()).has_regressions());
        // A lower floor re-arms the gate.
        let tight = DiffOptions {
            min_bytes: 1024.0,
            ..DiffOptions::default()
        };
        assert!(diff_traces(&old, &new, &tight).has_regressions());
    }

    #[test]
    fn memory_missing_on_either_side_is_ignored() {
        let with_mem = trace_with_peak(100 << 20);
        let without_mem = trace_with(1.0, 20); // memory None
        let diff = diff_traces(&without_mem, &with_mem, &DiffOptions::default());
        assert!(!diff.has_regressions());
        assert!(!diff
            .rows
            .iter()
            .any(|r| r.metric == "phase.algorithm.peak_bytes"));
    }

    #[test]
    fn optional_compact_phase_may_appear_from_zero() {
        let regressed = |old: &RunTrace, new: &RunTrace| -> Vec<String> {
            (diff_traces(old, new, &DiffOptions::default())
                .rows
                .into_iter())
            .filter(|r| r.regressed)
            .map(|r| r.metric)
            .collect()
        };
        let with = |extra: &str, seconds: f64| {
            let mut t = trace_with(1.0, 20);
            t.phases.push(phase(extra, seconds));
            t
        };
        // A baseline recorded before any updates carries the compact
        // phase at zero, or not at all: the candidate's first compaction
        // gates neither on its own row nor on the total.
        let new = with("compact", 0.25);
        for old in [with("compact", 0.0), trace_with(1.0, 20)] {
            let diff = diff_traces(&old, &new, &DiffOptions::default());
            assert!(
                !diff.has_regressions(),
                "compact appearing from zero must not gate: {:?}",
                diff.regressions
            );
            let row = (diff.rows.iter())
                .find(|r| r.metric == "phase.compact.seconds")
                .expect("compact row still reported for context");
            assert!(!row.gating && !row.regressed);
        }

        // A non-optional phase appearing from zero still gates, on its
        // row and on the total.
        assert_eq!(
            regressed(&with("partition", 0.0), &with("partition", 0.25)),
            ["phases.total_seconds", "phase.partition.seconds"]
        );

        // And compact itself still gates on relative slowdown once both
        // runs spend real time compacting.
        assert_eq!(
            regressed(&with("compact", 0.1), &with("compact", 0.5)),
            ["phases.total_seconds", "phase.compact.seconds"]
        );
    }

    /// `trace` plus one iteration record per entry of `modes`.
    fn with_iterations(modes: &[StepMode]) -> RunTrace {
        let mut t = trace_with(1.0, 20);
        for (step, &mode) in modes.iter().enumerate() {
            t.iterations.push(TraceIteration::new(
                step,
                IterStat {
                    frontier_size: 10,
                    edges_scanned: 100,
                    seconds: 0.01,
                    mode,
                    density: 0.1,
                    decision: DirectionDecision::heuristic(110, 50),
                },
            ));
        }
        t
    }

    #[test]
    fn iteration_count_blowup_gates_but_small_growth_passes() {
        use StepMode::Push;
        let old = with_iterations(&[Push; 8]);
        // +2 steps is inside the absolute slack even though it exceeds
        // the 10% relative threshold.
        let near = with_iterations(&[Push; 10]);
        assert!(!diff_traces(&old, &near, &DiffOptions::default()).has_regressions());
        // A convergence blowup trips the gate even with identical times.
        let blowup = with_iterations(&[Push; 40]);
        let diff = diff_traces(&old, &blowup, &DiffOptions::default());
        assert!(diff.has_regressions());
        assert!(diff
            .rows
            .iter()
            .any(|r| r.metric == "iterations.count" && r.gating && r.regressed));
    }

    #[test]
    fn direction_flapping_gates() {
        use StepMode::{Pull, Push};
        // Healthy run: push, two pull steps in the dense middle, push.
        let old = with_iterations(&[Push, Pull, Pull, Push]);
        // One extra flip is tolerated (data-dependent frontier shapes).
        let ok = with_iterations(&[Push, Pull, Push, Push]);
        assert!(!diff_traces(&old, &ok, &DiffOptions::default()).has_regressions());
        // Flapping every step is a decision-logic regression.
        let flapping = with_iterations(&[Push, Pull, Push, Pull, Push, Pull]);
        let diff = diff_traces(&old, &flapping, &DiffOptions::default());
        assert!(diff.has_regressions());
        assert!(diff
            .rows
            .iter()
            .any(|r| r.metric == "iterations.direction_flips" && r.gating && r.regressed));
    }

    #[test]
    fn a_baseline_without_iterations_keeps_iteration_metrics_informational() {
        use StepMode::{Pull, Push};
        let old = trace_with(1.0, 20); // no iteration records
        let new = with_iterations(&[Push, Pull, Push, Pull, Push, Pull]);
        let diff = diff_traces(&old, &new, &DiffOptions::default());
        assert!(!diff.has_regressions());
        for metric in ["iterations.count", "iterations.direction_flips"] {
            let row = diff.rows.iter().find(|r| r.metric == metric).unwrap();
            assert!(!row.gating, "{metric} must not gate without a baseline");
        }
        // And nothing at all when the candidate has no iterations either.
        let diff = diff_traces(&old, &old, &DiffOptions::default());
        assert!(!diff
            .rows
            .iter()
            .any(|r| r.metric.starts_with("iterations.")));
    }

    #[test]
    fn delta_pct_handles_zero_baseline() {
        let row = DiffRow {
            metric: "x".into(),
            old: 0.0,
            new: 1.0,
            gating: false,
            regressed: false,
        };
        assert!(row.delta_pct().is_infinite());
        let zero = DiffRow { new: 0.0, ..row };
        assert_eq!(zero.delta_pct(), 0.0);
    }
}
