//! The result line: `{"correct","attempted","failed","metrics"}`.

use std::fmt::Write as _;

use crate::stats::Tally;

/// Named metrics with units, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or a non-finite value (both are bugs
    /// in the benchmark, and neither can be written as JSON).
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The final stdout line of a run.
pub fn result_line(tally: Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        let tally = Tally {
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            result_line(tally, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let tally = Tally {
            attempted: 2,
            failed: 1,
        };
        assert!(result_line(tally, &Metrics::default()).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_metrics_are_rejected() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "s");
        m.put("x", 2.0, "s");
    }
}
