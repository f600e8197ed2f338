//! Property tests for the `trace diff` gate threshold logic.
//!
//! The gate must be a total, monotone function of its inputs: no
//! combination of phase seconds (including zeros and NaN from corrupt
//! traces), threshold, and floor may panic, produce NaN verdicts, or
//! flag a run that did not get slower.

use egraph_core::telemetry::{PhaseProfile, RunTrace};
use egraph_core::trace_diff::{diff_traces, DiffOptions, DiffRow};
use proptest::prelude::*;

/// A trace whose algorithm phase costs `algorithm_secs` and optionally
/// carries LLC counters.
fn trace(algorithm_secs: f64, llc: Option<(f64, f64)>) -> RunTrace {
    let mut t = RunTrace::new("bfs");
    let mut phase = PhaseProfile {
        name: "algorithm".into(),
        seconds: algorithm_secs,
        ..PhaseProfile::default()
    };
    if let Some((loads, misses)) = llc {
        phase.hardware.insert("llc_loads".into(), loads);
        phase.hardware.insert("llc_load_misses".into(), misses);
    }
    t.phases.push(phase);
    t
}

/// Scales a raw integer draw into seconds spanning sub-noise to long
/// phases (0 .. ~100 s with microsecond granularity).
fn secs(raw: u64) -> f64 {
    raw as f64 * 1e-6
}

proptest! {
    #[test]
    fn faster_or_equal_runs_never_regress(
        old_us in 0u64..100_000_000,
        shrink_us in 0u64..100_000_000,
        threshold_pct in 0u32..200,
    ) {
        let old_s = secs(old_us);
        let new_s = secs(old_us.saturating_sub(shrink_us));
        let opts = DiffOptions {
            threshold_pct: threshold_pct as f64,
            ..DiffOptions::default()
        };
        let diff = diff_traces(&trace(old_s, None), &trace(new_s, None), &opts);
        prop_assert!(
            !diff.has_regressions(),
            "{old_s}s -> {new_s}s flagged at {threshold_pct}%: {:?}",
            diff.regressions
        );
    }

    #[test]
    fn gate_is_monotone_in_the_threshold(
        old_us in 1u64..100_000_000,
        new_us in 1u64..100_000_000,
        tight_pct in 0u32..100,
        extra_pct in 1u32..100,
    ) {
        // If a slowdown passes a tight threshold it must pass every
        // looser one; equivalently a loose-threshold regression implies
        // a tight-threshold regression.
        let old = trace(secs(old_us), None);
        let new = trace(secs(new_us), None);
        let tight = DiffOptions { threshold_pct: tight_pct as f64, ..DiffOptions::default() };
        let loose = DiffOptions {
            threshold_pct: (tight_pct + extra_pct) as f64,
            ..DiffOptions::default()
        };
        let regressed_loose = diff_traces(&old, &new, &loose).has_regressions();
        let regressed_tight = diff_traces(&old, &new, &tight).has_regressions();
        prop_assert!(
            !regressed_loose || regressed_tight,
            "regressed at {}% but not at {}%",
            loose.threshold_pct,
            tight.threshold_pct
        );
    }

    #[test]
    fn sub_floor_phases_never_gate(
        old_us in 0u64..1000,
        new_us in 0u64..1000,
        threshold_pct in 0u32..50,
    ) {
        // Both runs stay under the 1 ms default floor: any relative
        // jitter — including appearing from zero — is noise.
        let opts = DiffOptions { threshold_pct: threshold_pct as f64, ..DiffOptions::default() };
        let diff = diff_traces(&trace(secs(old_us), None), &trace(secs(new_us), None), &opts);
        prop_assert!(!diff.has_regressions(), "{:?}", diff.regressions);
    }

    #[test]
    fn zero_second_baseline_gates_once_above_the_floor(extra_us in 1_000u64..10_000_000) {
        // A phase absent from the baseline that now costs >= the floor
        // is an infinite relative slowdown and must gate.
        let opts = DiffOptions::default();
        let new_s = opts.min_seconds + secs(extra_us);
        let diff = diff_traces(&trace(0.0, None), &trace(new_s, None), &opts);
        prop_assert!(diff.has_regressions(), "0s -> {new_s}s passed the gate");
    }

    #[test]
    fn non_finite_inputs_never_panic_or_gate(
        pick in 0usize..5,
        other_us in 0u64..10_000_000,
        loads in 0u64..1000,
    ) {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0][pick];
        // NaN/inf seconds on either side, and LLC counters whose loads
        // may be zero (the division edge case), must neither panic nor
        // produce NaN verdicts.
        let llc = Some((loads as f64, bad));
        let old = trace(bad, llc);
        let new = trace(secs(other_us), Some((loads as f64, 1.0)));
        for (a, b) in [(&old, &new), (&new, &old), (&old, &old)] {
            let diff = diff_traces(a, b, &DiffOptions::default());
            for row in &diff.rows {
                prop_assert!(!row.delta_pct().is_infinite() || row.old == 0.0);
                if !row.old.is_finite() || !row.new.is_finite() {
                    prop_assert!(!row.regressed, "non-finite row gated: {}", row.metric);
                    prop_assert!(row.delta_pct().is_nan());
                }
            }
        }
    }

    #[test]
    fn delta_pct_is_total(old_bits in any::<u32>(), new_bits in any::<u32>()) {
        // Any pair of f64 values (driven through the f32 bit space for
        // coverage of NaN/inf/subnormals) yields a number, never a panic.
        let row = DiffRow {
            metric: "x".into(),
            old: f32::from_bits(old_bits) as f64,
            new: f32::from_bits(new_bits) as f64,
            gating: true,
            regressed: false,
        };
        let _ = row.delta_pct();
    }
}

#[test]
fn absent_llc_counters_produce_no_ratio_rows() {
    // loads == 0: the ratio would be 0/0 = NaN; the row must simply be
    // omitted rather than poisoning the diff.
    let old = trace(1.0, Some((0.0, 0.0)));
    let new = trace(1.0, Some((0.0, 0.0)));
    let diff = diff_traces(&old, &new, &DiffOptions::default());
    assert!(
        diff.rows
            .iter()
            .all(|r| !r.metric.contains("llc_miss_ratio")),
        "{:?}",
        diff.rows
    );
    assert!(!diff.has_regressions());
}

#[test]
fn miss_ratio_appearing_from_zero_gates() {
    let old = trace(1.0, Some((100.0, 0.0)));
    let new = trace(1.0, Some((100.0, 30.0)));
    let diff = diff_traces(&old, &new, &DiffOptions::default());
    assert!(diff.has_regressions());
    assert!(diff
        .regressions
        .iter()
        .any(|r| r.contains("appeared from zero")));
}
