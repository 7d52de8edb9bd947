//! What one run prints: the workload's named metrics, its per-layer
//! metrics, run facts, correctness checks, and the contract line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports under the same name (the
/// `end_to_end` list of `BENCHMARK.json`), with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("query_ms", "ms"),
    ("round_ms", "ms"),
];

/// One metric: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One kind of correctness check: how often it passed and failed, and the
/// detail of the first failure (or of the last pass).
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub passed: u64,
    pub failed: u64,
    pub detail: String,
}

#[derive(Default, Debug)]
pub struct Report {
    /// The workload's own end-to-end metrics, by the names of the metric
    /// table (`solve_p50_ms`, `linbp_s`, …).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Run facts: sizes, thread counts, sample counts.
    pub facts: Vec<(String, String)>,
    /// Correctness checks, one entry per kind.
    pub checks: Vec<Check>,
    /// Operations attempted, failed or rejected, and answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// False when the open-loop generator fell behind for good.
    pub valid: bool,
}

impl Report {
    pub fn new() -> Self {
        Self {
            valid: true,
            ..Self::default()
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records a check; a failed check counts as one wrong answer.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl ToString) {
        if !ok {
            self.wrong += 1;
        }
        let i = match self.checks.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                self.checks.push(Check {
                    name: name.to_string(),
                    passed: 0,
                    failed: 0,
                    detail: String::new(),
                });
                self.checks.len() - 1
            }
        };
        let c = &mut self.checks[i];
        if ok {
            c.passed += 1;
        } else {
            c.failed += 1;
        }
        if (!ok && c.failed == 1) || c.failed == 0 {
            c.detail = detail.to_string();
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.named
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.checks.iter().all(|c| c.failed == 0)
    }
}

/// A JSON number; non-finite values (which the contract forbids) become
/// `null` so the line still parses and the run shows as broken.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (the benchmark's strings need no escapes beyond
/// quotes and backslashes).
pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(&m.name),
            num(m.value),
            string(m.unit)
        );
    }
    out.push('}');
    out
}

/// The full report as one JSON object (written to the report file and
/// printed on the `report` line).
pub fn report_json(workload: &str, seed: u64, traced: bool, r: &Report) -> String {
    let facts: Vec<String> = r
        .facts
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v)))
        .collect();
    let checks: Vec<String> = r
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"check\": {}, \"passed\": {}, \"failed\": {}, \"detail\": {}}}",
                string(&c.name),
                c.passed,
                c.failed,
                string(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"valid\": {}, \
         \"attempted\": {}, \"failed\": {}, \"wrong\": {}, \"error_rate\": {}, \
         \"metrics\": {}, \"layers\": {}, \"facts\": {{{}}}, \"checks\": [{}]}}",
        string(workload),
        r.valid,
        r.attempted,
        r.failed,
        r.wrong,
        num(r.error_rate()),
        metrics_object(&r.named),
        metrics_object(&r.layers),
        facts.join(", "),
        checks.join(", ")
    )
}

/// The contract line: `correct`, `attempted`, `failed`, and the metrics
/// the run owes (end-to-end untraced, per-layer traced).
pub fn contract_line(r: &Report, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed + r.wrong,
        metrics_object(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.check("answers", true, "");
        let line = contract_line(
            &r,
            &[Metric {
                name: "setup_s".into(),
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check("beliefs", false, "bit mismatch");
        assert!(contract_line(&r, &[]).starts_with("{\"correct\": false"));
        assert_eq!(r.error_rate(), 1.0 / 3.0);
    }
}
