//! What one run reports: its metrics, its operation tally and whether
//! every correctness check held; printed as a human-readable log and
//! the final JSON line.

use perfbench::Tally;

pub struct Report {
    pub tally: Tally,
    pub correct: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            tally: Tally::default(),
            correct: true,
            metrics: Vec::new(),
        }
    }

    /// Record metric `name`; printed at once and kept for the JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("  {name:<44} {value:>14.6} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count a correctness check as one operation; a failure also marks
    /// the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.record(ok);
        if ok {
            println!("  check ok: {what}");
        } else {
            self.correct = false;
            println!("  CHECK FAILED: {what}");
        }
    }

    /// Mark the run incorrect after failed operations already counted.
    pub fn fail(&mut self, what: &str) {
        self.correct = false;
        println!("  CHECK FAILED: {what}");
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// A non-finite value cannot be written as JSON and makes the run
    /// incorrect.
    pub fn json(&mut self) -> String {
        let mut body = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            let value = if value.is_finite() {
                *value
            } else {
                self.correct = false;
                println!("  CHECK FAILED: metric {name} is not finite");
                0.0
            };
            body.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            body.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
