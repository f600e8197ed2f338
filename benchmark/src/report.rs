//! What one run measured, and the two ways it is written: the human
//! table plus result file, and the one-line JSON object the driver
//! reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use egraph_core::telemetry::json;

use crate::spec::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Percentile;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// How many samples it was reduced from (`1` for a plain count).
    pub samples: usize,
    /// Anything a reader must know to interpret it (a percentile
    /// fallback, an invalid step, a spread).
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Of those: wrong against the reference, refused, errored or timed
    /// out.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, Measured>,
    /// Run-level remarks (invalid load-generator steps, flags).
    pub notes: Vec<String>,
    /// Bytes the workload's resident graph structures occupy, for the
    /// environment record's LLC comparison.
    pub working_set_bytes: u64,
}

impl Report {
    /// Records a value reduced from `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.set_noted(name, value, samples, String::new());
    }

    /// Records a value with an interpretation note.
    pub fn set_noted(&mut self, name: &str, value: f64, samples: usize, note: String) {
        let previous = self.metrics.insert(
            name.to_string(),
            Measured {
                value,
                samples,
                note,
            },
        );
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Records a percentile, noting a fallback when the rule forced one.
    pub fn set_percentile(&mut self, name: &str, p: Percentile, wanted: f64) {
        let note = if p.effective == wanted {
            String::new()
        } else {
            format!(
                "p{:.0} reported: fewer than 10 samples beyond p{:.0}",
                p.effective * 100.0,
                wanted * 100.0
            )
        };
        self.set_noted(name, p.value, p.samples, note);
    }

    /// Records `peak_rss_mb`. A workload calls this when its measured
    /// phases end and before the answer checks that follow them, so the
    /// references' own memory (replayed edge maps, per-epoch answers)
    /// stays out of the product's peak.
    pub fn record_peak_rss(&mut self) {
        self.set("peak_rss_mb", crate::peak_rss_mib(), 1);
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of checked operations that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metric table this run must print: end-to-end untraced,
    /// per-layer traced.
    pub fn table(traced: bool) -> &'static [MetricDef] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Looks a metric of the run's table up. A per-layer metric the
    /// workload never produced is a layer it never entered: `0`. A
    /// missing end-to-end metric is a harness bug.
    pub fn value_of(&self, def: &MetricDef, traced: bool) -> Measured {
        match self.metrics.get(def.name) {
            Some(m) => m.clone(),
            None if traced => Measured {
                value: 0.0,
                samples: 0,
                note: "layer not entered by this workload".to_string(),
            },
            None => panic!("end-to-end metric {} was not measured", def.name),
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in Self::table(traced).iter().enumerate() {
            let m = self.value_of(def, traced);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(def.name),
                number(m.value),
                json::string(def.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The human table: every metric by name with unit, sample count
    /// and bound.
    pub fn human_table(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:<6} {:>8} {:>6}  note",
            "metric", "value", "unit", "samples", "bound"
        );
        for def in Self::table(traced) {
            let m = self.value_of(def, traced);
            let bound = def.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            let _ = writeln!(
                out,
                "{:<34} {:>16} {:<6} {:>8} {:>6}  {}",
                def.name,
                number(m.value),
                def.unit,
                m.samples,
                bound,
                m.note
            );
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16} {:<6} {:>8} {:>6}  {} failed of {} checked; any increase fails",
            "fail_frac",
            number(self.fail_frac()),
            "ratio",
            self.attempted,
            "0",
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Every recorded metric (not only the run's table) as a JSON
    /// object body, for the result file.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"value\": {}, \"samples\": {}, \"note\": {}}}",
                json::string(name),
                number(m.value),
                m.samples,
                json::string(&m.note)
            );
        }
        out.push_str("\n  }");
        out
    }
}

/// The value of `name` in a JSON object, if `doc` is one and has it.
pub fn json_field<'a>(doc: &'a json::Value, name: &str) -> Option<&'a json::Value> {
    doc.as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// A JSON number with all the digits `f64` carries (never rounded for
/// display: the driver rejects timings that read the same every run).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        for def in END_TO_END.iter() {
            report.set(def.name, 1.25, 3);
        }
        report.check(true);
        report.check(true);
        let doc = json::parse(&report.result_line(false)).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.as_object().unwrap()[3].1.as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, value), def) in metrics.iter().zip(END_TO_END.iter()) {
            assert_eq!(name, def.name);
            let fields = value.as_object().unwrap();
            assert_eq!(fields[0].1.as_number(), Some(1.25));
            assert_eq!(fields[1].1.as_str(), Some(def.unit));
        }
    }

    #[test]
    fn traced_line_fills_unentered_layers_with_zero() {
        let report = Report::default();
        let doc = json::parse(&report.result_line(true)).unwrap();
        let metrics = doc.as_object().unwrap()[3].1.as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics
            .iter()
            .all(|(_, v)| v.as_object().unwrap()[0].1.as_number() == Some(0.0)));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut report = Report::default();
        for def in END_TO_END.iter() {
            report.set(def.name, 1.0, 1);
        }
        report.check(true);
        report.check(false);
        assert!(report
            .result_line(false)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(report.fail_frac(), 0.5);
    }
}
