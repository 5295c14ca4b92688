//! Named metrics, operation accounting and the result line.

use std::fmt::Write as _;

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of letters, digits,
/// `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Metrics and operation counts of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a malformed or repeated name, a malformed unit, or a
    /// non-finite value: each is a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "metric name {name:?} breaks the grammar");
        assert!(valid_unit(unit), "unit {unit:?} breaks the grammar");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records `value` when present, otherwise notes why it is absent.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => println!("metric {name} not reported: too few samples"),
        }
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed, errored or answered
    /// wrongly.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Counts an operation by the outcome of its checks.
    pub fn check(&mut self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(e) => self.fail(e),
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Prints one human-readable line per metric, then the machine-readable
    /// `RESULT` line: every metric, the operation counts and `meta`
    /// (already-encoded JSON object members).
    pub fn print(&self, meta: &[(&str, String)]) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "operations attempted {} failed {} failed_share {share}",
            self.attempted, self.failed
        );
        let mut json = String::from("{\"metrics\":{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                json,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        let _ = write!(
            json,
            "}},\"attempted\":{},\"failed\":{},\"correct\":{}",
            self.attempted,
            self.failed,
            self.failed == 0
        );
        for (key, value) in meta {
            let _ = write!(json, ",\"{key}\":{value}");
        }
        json.push('}');
        println!("RESULT {json}");
    }
}

/// JSON string literal for `s` (quotes, backslashes and control characters
/// escaped).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
