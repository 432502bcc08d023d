//! `spq-bench compare`: the CI regression gate over two matrix reports.
//!
//! The gate is an **exact match on deterministic counters**. For every
//! benchmark id of the baseline, the candidate must carry the same id
//! with an identical [`Counters`](super::record::Counters) block and
//! `shed_rate`; any differing counter, and any baseline id missing from
//! the candidate, fails it. Ids only the candidate has are listed and
//! pass (a new benchmark is not a regression). Timings (`qps`, `mean_ms`,
//! `p50_ms`, `p99_ms`) are never looked at: the counters are a pure
//! function of the run configuration, so the gate cannot flake, needs no
//! threshold, and means the same thing on any runner — wall-clock claims
//! belong to `benchmark/run.sh`.
//!
//! Because the counters are only comparable like-for-like, two documents
//! whose `config` echoes differ in `seed`, `scale`, `queries`, `batch` or
//! `filter` are refused outright (`workers` is excluded: the counters are
//! worker-invariant).

use super::record::{MatrixReport, ReportConfig};
use std::path::Path;

/// One counter of one shared id that differs between the documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// The benchmark id.
    pub id: String,
    /// The counter's document key (`shuffle_records`, `shed_rate`, …).
    pub counter: &'static str,
    /// The baseline's value, as written in its document.
    pub baseline: String,
    /// The candidate's value.
    pub candidate: String,
}

/// The full comparison of two reports.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Ids present in both documents.
    pub compared: usize,
    /// Differing counters, in baseline id order then document key order.
    pub mismatches: Vec<Mismatch>,
    /// Ids only in the candidate (listed, not a failure).
    pub added: Vec<String>,
    /// Ids only in the baseline (a failure: coverage was lost).
    pub removed: Vec<String>,
}

impl Comparison {
    /// Differing counters plus removed ids — the gate's exit condition.
    pub fn failures(&self) -> usize {
        self.mismatches.len() + self.removed.len()
    }

    /// Renders the comparison: one line per finding, then a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.mismatches {
            out.push_str(&format!(
                "MISMATCH {} {}: baseline {}, candidate {}\n",
                m.id, m.counter, m.baseline, m.candidate
            ));
        }
        for id in &self.removed {
            out.push_str(&format!("REMOVED  {id}: in the baseline only\n"));
        }
        for id in &self.added {
            out.push_str(&format!("ADDED    {id}: in the candidate only\n"));
        }
        out.push_str(&format!(
            "counter gate: {} ids compared, {} differing counters, {} removed, {} added — {}\n",
            self.compared,
            self.mismatches.len(),
            self.removed.len(),
            self.added.len(),
            if self.failures() == 0 { "ok" } else { "FAILED" }
        ));
        out
    }
}

/// The first `config` field on which two runs are not like-for-like.
fn config_mismatch(b: &ReportConfig, c: &ReportConfig) -> Option<String> {
    [
        ("seed", b.seed.to_string(), c.seed.to_string()),
        ("scale", format!("{:?}", b.scale), format!("{:?}", c.scale)),
        ("queries", b.queries.to_string(), c.queries.to_string()),
        ("batch", b.batch.to_string(), c.batch.to_string()),
        (
            "filter",
            format!("{:?}", b.filter),
            format!("{:?}", c.filter),
        ),
    ]
    .into_iter()
    .find(|(_, b, c)| b != c)
    .map(|(field, b, c)| format!("config.{field} differs: baseline {b}, candidate {c}"))
}

/// Compares two parsed reports; `Err` when they were not produced by the
/// same run configuration.
pub fn compare_reports(
    baseline: &MatrixReport,
    candidate: &MatrixReport,
) -> Result<Comparison, String> {
    if let Some(message) = config_mismatch(&baseline.config, &candidate.config) {
        return Err(format!("documents are not like-for-like: {message}"));
    }
    let mut comparison = Comparison {
        compared: 0,
        mismatches: Vec::new(),
        added: Vec::new(),
        removed: Vec::new(),
    };
    for base in &baseline.records {
        let Some(cand) = candidate.records.iter().find(|c| c.id == base.id) else {
            comparison.removed.push(base.id.clone());
            continue;
        };
        comparison.compared += 1;
        for ((counter, b), (_, c)) in base.counters.fields().iter().zip(cand.counters.fields()) {
            if *b != c {
                comparison.mismatches.push(Mismatch {
                    id: base.id.clone(),
                    counter,
                    baseline: b.to_string(),
                    candidate: c.to_string(),
                });
            }
        }
        if base.shed_rate != cand.shed_rate {
            comparison.mismatches.push(Mismatch {
                id: base.id.clone(),
                counter: "shed_rate",
                baseline: format!("{:?}", base.shed_rate),
                candidate: format!("{:?}", cand.shed_rate),
            });
        }
    }
    comparison.added = candidate
        .records
        .iter()
        .filter(|c| !baseline.records.iter().any(|b| b.id == c.id))
        .map(|c| c.id.clone())
        .collect();
    Ok(comparison)
}

/// Reads, parses and compares two report files.
pub fn compare_files(baseline: &Path, candidate: &Path) -> Result<Comparison, String> {
    let base = MatrixReport::from_file(baseline)?;
    let cand = MatrixReport::from_file(candidate)?;
    compare_reports(&base, &cand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::record::synthetic_fixture;

    #[test]
    fn identical_reports_are_all_unchanged() {
        let report = synthetic_fixture();
        let cmp = compare_reports(&report, &report).unwrap();
        assert_eq!(cmp.compared, report.records.len());
        assert_eq!(cmp.failures(), 0);
        assert!(cmp.mismatches.is_empty() && cmp.added.is_empty() && cmp.removed.is_empty());
        assert!(cmp.render().ends_with("— ok\n"), "{}", cmp.render());
    }

    #[test]
    fn a_differing_counter_fails_and_is_named_but_timings_never_are() {
        let base = synthetic_fixture();
        let mut cand = base.clone();
        cand.records[1].counters.map_duplicates += 1;
        cand.records[3].shed_rate = 0.25;
        for r in &mut cand.records {
            r.qps /= 3.0;
            r.mean_ms.point *= 3.0;
            r.p99_ms.hi *= 3.0;
        }
        let cmp = compare_reports(&base, &cand).unwrap();
        let found: Vec<(&str, &str)> = cmp
            .mismatches
            .iter()
            .map(|m| (m.id.as_str(), m.counter))
            .collect();
        assert_eq!(
            found,
            vec![
                (base.records[1].id.as_str(), "map_duplicates"),
                (base.records[3].id.as_str(), "shed_rate")
            ]
        );
        assert_eq!(cmp.failures(), 2);
        assert!(cmp.render().ends_with("— FAILED\n"), "{}", cmp.render());
    }

    #[test]
    fn disjoint_id_sets_are_reported_not_ignored() {
        let base = synthetic_fixture();
        let mut cand = base.clone();
        let dropped = cand.records.remove(0);
        let mut renamed = cand.records[0].clone();
        renamed.id = "clustered-60k/pSPQ/local/execute".to_owned();
        cand.records.push(renamed.clone());
        let cmp = compare_reports(&base, &cand).unwrap();
        assert_eq!(cmp.removed, vec![dropped.id.clone()]);
        assert_eq!(cmp.added, vec![renamed.id.clone()]);
        assert_eq!(cmp.compared, base.records.len() - 1);
        // Lost coverage fails the gate; gained coverage alone does not.
        assert_eq!(cmp.failures(), 1);
        let text = cmp.render();
        assert!(text.contains(&format!("REMOVED  {}", dropped.id)), "{text}");
        assert!(text.contains(&format!("ADDED    {}", renamed.id)), "{text}");
        assert_eq!(compare_reports(&cand, &cand).unwrap().failures(), 0);
    }

    #[test]
    fn unlike_configs_are_refused_but_workers_may_differ() {
        let base = synthetic_fixture();
        let mut cand = base.clone();
        cand.config.workers = 1;
        assert_eq!(compare_reports(&base, &cand).unwrap().failures(), 0);

        type Edit = fn(&mut ReportConfig);
        let edits: [(&str, Edit); 5] = [
            ("seed", |c| c.seed += 1),
            ("scale", |c| c.scale *= 2.0),
            ("queries", |c| c.queries += 1),
            ("batch", |c| c.batch += 1),
            ("filter", |c| c.filter = None),
        ];
        for (field, edit) in edits {
            let mut cand = base.clone();
            edit(&mut cand.config);
            let err = compare_reports(&base, &cand).unwrap_err();
            assert!(err.contains(&format!("config.{field}")), "{err}");
        }
    }
}
