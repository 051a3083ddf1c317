//! What one run found: attempted and failed operations, wrong answers, and
//! the metrics, printed as a table and as the closing JSON line.

use crate::stats::{highest_supported, Timings};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes, where that is meaningful.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, or answered wrongly.
    pub failed: u64,
    /// Of those, answers that were wrong (these fail the run).
    pub wrong: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Why a metric could not be reported (e.g. too few samples for its
    /// percentile); a run with any of these prints no result.
    pub unsupported: Vec<String>,
}

const MAX_NOTES: usize = 8;

impl Report {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation; `wrong` marks a wrong answer.
    pub fn fail(&mut self, wrong: bool, note: impl FnOnce() -> String) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        if self.notes.len() < MAX_NOTES {
            self.notes.push(format!(
                "{}: {}",
                if wrong { "WRONG" } else { "failed" },
                note()
            ));
        }
    }

    /// Folds another report's counts and notes into this one.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
        self.metrics.extend(other.metrics);
        self.unsupported.extend(other.unsupported);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds `<prefix>_p<p>_ms` from `t` (in ms) for each percentile `p`,
    /// or records why the sample cannot support it.
    pub fn timing(&mut self, prefix: &str, percentiles: &[f64], t: &Timings) {
        let n = Some(t.len());
        for &p in percentiles {
            match t.at(p) {
                Ok(v) => self.metric(&format!("{prefix}_p{p}_ms"), v, "ms", n),
                Err(e) => self.unsupported.push(format!("{prefix}: {e}")),
            }
        }
    }

    /// The failed share of attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The run is correct when no answer was wrong and something ran.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// Human-readable lines: one per metric, then the failure notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = match (m.samples, m.unit) {
                // Timings also name the highest percentile their sample
                // supports.
                (Some(n), "ms" | "us" | "s") => match highest_supported(n) {
                    Some(p) => format!("  (n={n}, supports p{p})"),
                    None => format!("  (n={n})"),
                },
                (Some(n), _) => format!("  (n={n})"),
                (None, _) => String::new(),
            };
            out.push_str(&format!(
                "  {:<34} {:>16.6} {:<6}{samples}\n",
                m.name, m.value, m.unit
            ));
        }
        out.push_str(&format!(
            "  {:<34} {:>16.6} {:<6}  ({} failed of {} attempted, {} wrong)\n",
            "fail_ratio",
            self.fail_ratio(),
            "ratio",
            self.failed,
            self.attempted,
            self.wrong
        ));
        for n in &self.notes {
            out.push_str(&format!("  ! {n}\n"));
        }
        for u in &self.unsupported {
            out.push_str(&format!("  ? unsupported: {u}\n"));
        }
        out
    }

    /// The closing JSON line with the metrics named in `names`, in that
    /// order (every name must have been reported).
    pub fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_fails_the_run_and_counts_as_failed() {
        let mut r = Report::default();
        r.attempt(10);
        r.fail(false, || "timed out".into());
        assert!(r.correct());
        r.fail(true, || "reply checked against the wrong serial".into());
        assert!(!r.correct());
        assert_eq!((r.failed, r.wrong), (2, 1));
        assert!((r.fail_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_carries_every_named_metric_with_full_precision() {
        let mut r = Report::default();
        r.attempt(3);
        r.metric("latency_ms", 1.234_567_891_2, "ms", Some(3));
        let line = r.json(&["latency_ms"]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2345678912, \"unit\": \"ms\"}}}"
        );
        assert!(r.json(&["missing"]).is_err());
    }
}
