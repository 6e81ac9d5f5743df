//! The result of one benchmark run: metrics, correctness checks, and the
//! operations each phase attempted and failed.

use std::fmt::Write;

/// Metric names start with a letter or digit and use only letters,
/// digits, `_`, `.` and `-`, at most 64 of them.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    phases: Vec<(String, u64, u64)>,
    /// Per phase of the run: median set-up seconds, and true coverage /
    /// OPT of its k-cover answer.
    setups: Vec<f64>,
    coverages: Vec<f64>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a metric. An invalid name or a non-finite value fails the
    /// run instead of printing something the reader cannot parse.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let ok = valid_name(name) && value.is_finite();
        self.check(&format!("metric {name} is well-formed ({value})"), ok);
        if ok {
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    /// Record that a phase attempted `attempted` operations, `failed` of
    /// which failed.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.phases.push((name.to_string(), attempted, failed));
    }

    /// Record a phase's set-up seconds (the median of its set-ups); the
    /// run's `setup_s` is their sum.
    pub fn setup(&mut self, secs: f64) {
        self.setups.push(secs);
    }

    /// Record a phase's k-cover answer quality, true coverage over OPT;
    /// the run's `coverage_ratio` is the lowest.
    pub fn coverage(&mut self, ratio: f64) {
        self.coverages.push(ratio);
    }

    /// Report `setup_s` and `coverage_ratio` over every phase recorded.
    pub fn add_run_metrics(&mut self) {
        let setup_s = self.setups.iter().sum();
        let coverage = self.coverages.iter().copied().fold(f64::INFINITY, f64::min);
        self.metric("setup_s", setup_s, "s");
        self.metric("coverage_ratio", coverage, "ratio");
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.2).sum()
    }

    /// Human-readable phase table and failed checks, for stderr.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (name, attempted, failed) in &self.phases {
            let _ = writeln!(s, "phase {name}: {attempted} attempted, {failed} failed");
        }
        for (what, ok) in &self.checks {
            if !ok {
                let _ = writeln!(s, "CHECK FAILED: {what}");
            }
        }
        s
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted().max(1),
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_use_only_the_allowed_characters() {
        for good in [
            "setup_s",
            "kcover.edges_per_s",
            "query_p50_ms",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "a\"b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::new();
        r.metric("setup_s", 0.25, "s");
        r.metric("wire_bytes", 1024.0, "bytes");
        r.phase("jobs", 3, 0);
        r.phase("queries", 5, 1);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"wire_bytes\": {\"value\": 1024.0, \"unit\": \"bytes\"}}}"
        );
    }

    #[test]
    fn run_metrics_add_set_ups_and_keep_the_lowest_coverage() {
        let mut run = Report::new();
        for (secs, ratio) in [(0.5, 1.0), (1.25, 0.75), (0.25, 0.875)] {
            run.setup(secs);
            run.coverage(ratio);
        }
        run.add_run_metrics();
        assert!(run.to_json().ends_with(
            "\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"coverage_ratio\": {\"value\": 0.75, \"unit\": \"ratio\"}}}"
        ));
        // A run whose phases recorded nothing reports no finite coverage.
        let mut empty = Report::new();
        empty.add_run_metrics();
        assert!(!empty.correct());
    }

    #[test]
    fn bad_metric_or_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new();
        r.metric("ok_name", f64::NAN, "s");
        assert!(!r.correct());
        assert!(r.to_json().contains("\"metrics\": {}"));
        let mut r = Report::new();
        r.metric("bad name", 1.0, "s");
        assert!(!r.correct());
        let mut r = Report::new();
        r.check("family matches", false);
        assert!(!r.correct());
        assert!(r.summary().contains("CHECK FAILED: family matches"));
    }
}
