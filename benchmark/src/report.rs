//! What a run prints and writes: per-workload metric tables, the one-line
//! JSON result the driver reads, and the result file with its context.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// `text` as a quoted JSON string.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` as a JSON number with all its digits (Rust's shortest
/// round-trip form).
///
/// # Panics
///
/// Panics on NaN or infinity — JSON cannot carry them, and a metric that
/// is not finite is a harness bug that must not be written down.
pub fn number(value: f64) -> String {
    assert!(value.is_finite(), "non-finite number {value} in output");
    format!("{value}")
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name, identical in `BENCHMARK.json` and in every output.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
    /// Sample count behind a percentile or mean, when there is one.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// A metric summarising `samples` observations.
    pub fn over(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            samples: Some(samples as u64),
            ..Self::new(name, value, unit)
        }
    }
}

/// Operation counts of one workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations issued (or due) inside the timed window.
    pub attempted: u64,
    /// Answered, and not found wrong by the oracle.
    pub succeeded: u64,
    /// Errored, or answered differently from the oracle.
    pub failed: u64,
    /// Refused at the admission cap.
    pub rejected: u64,
    /// Shed past a deadline.
    pub shed: u64,
    /// Answers the oracle recomputed.
    pub checked: u64,
}

impl Counts {
    /// Operations that did not produce a correct answer — the numerator
    /// of `error_rate`.
    pub fn unsuccessful(&self) -> u64 {
        self.failed + self.rejected + self.shed
    }

    /// `unsuccessful ÷ attempted`.
    pub fn error_rate(&self) -> f64 {
        self.unsuccessful() as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Operation counts.
    pub counts: Counts,
    /// Sample count behind the end-to-end percentiles.
    pub samples: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Free-form context (`key`, `value`) recorded in the result file.
    pub notes: Vec<(&'static str, String)>,
    /// Why the run must not be reported, if it must not.
    pub invalid: Option<String>,
}

impl WorkloadReport {
    /// An empty report.
    pub fn new(name: &'static str, why: &'static str, counts: Counts) -> Self {
        Self {
            name,
            why,
            counts,
            samples: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            invalid: None,
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Records a note for the result file.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// Marks the run invalid (the first reason wins).
    pub fn invalid(&mut self, reason: impl Into<String>) {
        self.invalid.get_or_insert(reason.into());
    }

    /// Whether every operation succeeded and the run is valid.
    pub fn correct(&self) -> bool {
        self.invalid.is_none() && self.counts.unsuccessful() == 0 && self.counts.attempted > 0
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table: `workload metric value unit [n=samples]`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(
                out,
                "{} {} {} {}",
                self.name,
                m.name,
                number(m.value),
                m.unit
            );
            if let Some(n) = m.samples {
                let _ = write!(out, " n={n}");
            }
            out.push('\n');
        }
        let c = &self.counts;
        // Not a bounded metric (its median is 0; see the README), but
        // printed by name in every run; `agree` holds it to 0 absolute.
        let _ = writeln!(
            out,
            "{} error_rate {} ratio n={}",
            self.name,
            number(c.error_rate()),
            c.attempted
        );
        let _ = writeln!(
            out,
            "{} operations attempted={} succeeded={} failed={} rejected={} shed={} checked={}",
            self.name, c.attempted, c.succeeded, c.failed, c.rejected, c.shed, c.checked
        );
        if let Some(reason) = &self.invalid {
            let _ = writeln!(out, "{} INVALID {reason}", self.name);
        }
        out
    }

    /// The metrics as a JSON object; `with_samples` adds each metric's
    /// sample count (the driver's result line must not carry it).
    fn metrics_json(&self, with_samples: bool) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples = match m.samples {
                    Some(n) if with_samples => format!(", \"samples\": {n}"),
                    _ => String::new(),
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.counts.attempted.max(1),
            self.counts.unsuccessful(),
            self.metrics_json(false)
        )
    }

    fn json(&self) -> String {
        let c = &self.counts;
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        format!(
            "{{\"name\": {}, \"why\": {}, \"valid\": {}, \"invalid_reason\": {}, \
             \"counts\": {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \
             \"rejected\": {}, \"shed\": {}, \"checked\": {}}}, \"error_rate\": {}, \
             \"samples\": {}, \"notes\": {{{}}}, \"metrics\": {}}}",
            quote(self.name),
            quote(self.why),
            self.invalid.is_none(),
            self.invalid.as_deref().map_or("null".to_owned(), quote),
            c.attempted,
            c.succeeded,
            c.failed,
            c.rejected,
            c.shed,
            c.checked,
            number(c.error_rate()),
            self.samples,
            notes.join(", "),
            self.metrics_json(true)
        )
    }
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The context every result file records, as JSON members.
pub fn context_json(pairs: &[(&str, String)]) -> String {
    let mut members: Vec<String> = vec![
        // The driver's checkout is not a git repository; "unknown" there.
        format!(
            "\"git_commit\": {}",
            quote(&first_line_of("git", &["rev-parse", "HEAD"]))
        ),
        format!("\"rustc\": {}", quote(&first_line_of("rustc", &["-V"]))),
    ];
    members.extend(pairs.iter().map(|(k, v)| format!("{}: {v}", quote(k))));
    format!("{{{}}}", members.join(", "))
}

/// Writes the result file: context plus one entry per workload run.
pub fn write_results(path: &Path, context: &str, reports: &[WorkloadReport]) -> Result<(), String> {
    let workloads: Vec<String> = reports.iter().map(WorkloadReport::json).collect();
    let text = format!(
        "{{\"schema\": 1, \"context\": {context}, \"workloads\": [\n  {}\n]}}\n",
        workloads.join(",\n  ")
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
