//! `agree A.json B.json`: do two sets of runs of the same commit (or of
//! a parent and a change) agree within the benchmark's own bounds?
//!
//! Each side is one result file or a comma-separated list of them; a
//! metric's value on a side is the **median** over that side's runs (on
//! a shared host single runs differ by more than any bound — see the
//! README's repeat data). Every end-to-end metric of every workload
//! present on both sides is compared against its `bound` and `better`
//! direction in `BENCHMARK.json`: B may be worse than A by at most
//! `bound × A`. `error_rate` is held to an **absolute** bound of 0: the
//! worst run of B may not err more than the worst run of A (a share of a
//! 0 median bounds nothing). Per-layer metrics have no bound; they are
//! listed for the reader and never fail the comparison.

use criterion::stats::Sample;
use spq_bench::matrix::json::Json;
use std::path::Path;

/// The per-workload field of a result file that carries
/// `(failed + rejected + shed + wrong) ÷ attempted`.
pub const ERROR_RATE: &str = "error_rate";

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` rules out of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .ok_or(format!("end_to_end entry without {key:?}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_owned(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("better is neither \"higher\" nor \"lower\"".to_owned()),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// By how much B is *worse* than A, as a share of A (negative = better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// One side of a comparison: for every `(workload, metric)` pair, the
/// values of every run found in the side's result files, in file order.
#[derive(Debug, Default)]
pub struct Side {
    values: Vec<(String, String, Vec<f64>)>,
}

impl Side {
    /// Adds every workload entry of one parsed result file.
    pub fn add(&mut self, doc: &Json) -> Result<(), String> {
        let entries = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("result file has no workloads list")?;
        for entry in entries {
            let workload = entry.get("name").and_then(Json::as_str).unwrap_or("?");
            if entry.get("valid") != Some(&Json::Bool(true)) {
                return Err(format!("{workload}: a run is marked invalid"));
            }
            let Some(Json::Obj(metrics)) = entry.get("metrics") else {
                continue;
            };
            for (metric, body) in metrics {
                if let Some(value) = body.get("value").and_then(Json::as_f64) {
                    self.push(workload, metric, value);
                }
            }
            if let Some(rate) = entry.get(ERROR_RATE).and_then(Json::as_f64) {
                self.push(workload, ERROR_RATE, rate);
            }
        }
        Ok(())
    }

    fn push(&mut self, workload: &str, metric: &str, value: f64) {
        match self
            .values
            .iter_mut()
            .find(|(w, m, _)| w == workload && m == metric)
        {
            Some((_, _, values)) => values.push(value),
            None => self
                .values
                .push((workload.to_owned(), metric.to_owned(), vec![value])),
        }
    }

    fn runs_of(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        self.values
            .iter()
            .find(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, values)| values.as_slice())
    }
}

/// Compares two sides by the **median** of each metric's runs; returns
/// the printed table and whether every bounded pair is within its bound.
pub fn compare(a: &Side, b: &Side, bounds: &[Bound]) -> Result<(String, bool), String> {
    let mut table = String::from("workload metric A(runs) B(runs) worse_by bound verdict\n");
    let mut all_within = true;
    let mut compared = 0usize;
    for (workload, metric, runs_a) in &a.values {
        let Some(runs_b) = b.runs_of(workload, metric) else {
            continue;
        };
        if metric == ERROR_RATE {
            let worst = |runs: &[f64]| Sample::new(runs).max();
            let (va, vb) = (worst(runs_a), worst(runs_b));
            let verdict = if vb > va {
                all_within = false;
                "OUT OF BOUND"
            } else {
                "ok"
            };
            table.push_str(&format!(
                "{workload} {metric} {va}({}) {vb}({}) {:+} 0abs {verdict}\n",
                runs_a.len(),
                runs_b.len(),
                vb - va
            ));
            continue;
        }
        let median = |runs: &[f64]| Sample::new(runs).percentile(0.5);
        let (va, vb) = (median(runs_a), median(runs_b));
        let rule = bounds.iter().find(|r| &r.name == metric);
        // Unbounded (per-layer) metrics are shown as a plain change.
        let worse = worsening(va, vb, rule.is_some_and(|r| r.higher_is_better));
        let (bound, verdict) = match rule {
            Some(rule) if worse > rule.bound => {
                all_within = false;
                (rule.bound.to_string(), "OUT OF BOUND")
            }
            Some(rule) => (rule.bound.to_string(), "ok"),
            None => ("-".to_owned(), "unbounded"),
        };
        compared += usize::from(rule.is_some());
        table.push_str(&format!(
            "{workload} {metric} {va}({}) {vb}({}) {:+.2}% {bound} {verdict}\n",
            runs_a.len(),
            runs_b.len(),
            worse * 100.0
        ));
    }
    if compared == 0 {
        return Err("the two sides share no bounded metric".to_owned());
    }
    Ok((table, all_within))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_side(files: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for file in files.split(',').filter(|f| !f.is_empty()) {
        side.add(&read_json(Path::new(file))?)
            .map_err(|e| format!("{file}: {e}"))?;
    }
    Ok(side)
}

/// The `agree` subcommand. Each side is one result file or a
/// comma-separated list of them (repeat runs of one side). `Ok(false)` =
/// some pair is out of bound.
pub fn run(a: &str, b: &str, root: &Path) -> Result<bool, String> {
    let bounds = bounds_of(&read_json(&root.join("BENCHMARK.json"))?)?;
    let (table, all_within) = compare(&read_side(a)?, &read_side(b)?, &bounds)?;
    print!("{table}");
    println!(
        "{}",
        if all_within {
            "agree: every bounded metric is within its bound"
        } else {
            "agree: at least one metric is OUT OF BOUND"
        }
    );
    Ok(all_within)
}
