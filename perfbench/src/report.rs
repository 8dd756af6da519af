//! A run's results: metrics with units, correctness gates, and the
//! human-readable table and final JSON line they are printed as.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value, full precision.
    pub value: f64,
    /// Unit (`s`, `us`, `ns`, `1/s`, `count`, `ratio`).
    pub unit: &'static str,
    /// Samples behind the value (0 where that means nothing, e.g. counts).
    pub samples: u64,
}

/// One correctness check; any failed gate makes the run exit nonzero.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug, Default, Clone)]
pub struct RunResult {
    /// Metrics reported in the final JSON line.
    pub metrics: Vec<Metric>,
    /// Further figures printed in the table only.
    pub info: Vec<Metric>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Requests attempted in measured phases.
    pub attempted: u64,
    /// Requests that errored or were refused.
    pub failed: u64,
}

impl RunResult {
    /// Add a JSON metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Add a table-only figure.
    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Value of the metric or figure called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Did every gate hold, with no failed request and every metric a
    /// finite number?
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
            && self.failed == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The table printed before the JSON line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>18} {:<6} samples",
            "metric", "value", "unit"
        );
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(
                out,
                "{:<44} {:>18.6} {:<6} {}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for g in &self.gates {
            let verdict = if g.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "gate {verdict} {}: {}", g.name, g.detail);
        }
        out
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Full-precision JSON number (JSON has no NaN or infinity; those become
/// `null` and make the run incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_holds_correct_attempted_failed_and_metrics() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.metric("setup_s", 0.25, "s", 3);
        r.info("rank_err_max", 0.001, "ratio", 7);
        r.gate("acked", true, "10 of 10".into());
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
        assert_eq!(r.value("rank_err_max"), Some(0.001));
    }
}
