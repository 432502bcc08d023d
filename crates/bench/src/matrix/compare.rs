//! `spq-bench compare`: the CI regression gate over two matrix reports.
//!
//! The gate is an **exact match on deterministic counters**. For every
//! row of the baseline, job or serving, the candidate must carry the
//! same id with an identical [`Counters`] block; any differing counter,
//! and any baseline id missing from the candidate, fails it. Ids only
//! the candidate has are listed and pass (a new row is not a
//! regression). Timings (`qps`, `mean_ms`,
//! `p50_ms`, `p99_ms`) are never looked at: the counters are a pure
//! function of the run configuration, so the gate cannot flake, needs no
//! threshold, and means the same thing on any runner — wall-clock claims
//! belong to `benchmark/run.sh`.
//!
//! Because the counters are only comparable like-for-like, two documents
//! whose `config` echoes differ in `seed`, `scale`, `queries` or `filter`
//! are refused outright (`workers` is excluded: the counters are
//! worker-invariant).

use super::record::{Counters, MatrixRecord, MatrixReport, ReportConfig};
use super::serve_id;
use std::path::Path;

/// One counter of one shared id that differs between the documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// The row's id.
    pub id: String,
    /// The counter's document key (`shuffle_records`, `kernel_visited`, …).
    pub counter: &'static str,
    /// The baseline's value.
    pub baseline: u64,
    /// The candidate's value.
    pub candidate: u64,
}

/// How much kernel work one corpus's `sharded:N` backend does per unit
/// of the local engine's, read from the corpus's `serve/<corpus>/local`
/// and `serve/<corpus>/sharded:N` rows. A ratio is NaN when the local
/// engine did none of that work.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRatios {
    /// The corpus axis.
    pub corpus: String,
    /// The sharded backend, e.g. `sharded:4`.
    pub backend: String,
    /// `kernel_candidates`, sharded over local.
    pub candidates: f64,
    /// `kernel_visited`, sharded over local.
    pub visited: f64,
    /// `kernel_distance_checks`, sharded over local.
    pub distance_checks: f64,
}

/// Every corpus's [`KernelRatios`], one per sharded serving row, in
/// report order.
pub(crate) fn kernel_ratios(report: &MatrixReport) -> Vec<KernelRatios> {
    let kernel = |r: &MatrixRecord| match r.counters {
        Counters::Serve(c) => [
            c.kernel_candidates,
            c.kernel_visited,
            c.kernel_distance_checks,
        ],
        Counters::Job(_) => [0; 3],
    };
    report
        .records
        .iter()
        .filter_map(|r| {
            let (corpus, backend) = r.id.strip_prefix("serve/")?.split_once('/')?;
            backend
                .starts_with("sharded:")
                .then_some((corpus, backend, r))
        })
        .map(|(corpus, backend, sharded)| {
            let local_id = serve_id(corpus, "local");
            let local = report.records.iter().find(|r| r.id == local_id);
            let (local, sharded) = (local.map_or([0; 3], kernel), kernel(sharded));
            let ratio = |i: usize| sharded[i] as f64 / local[i] as f64;
            KernelRatios {
                corpus: corpus.to_owned(),
                backend: backend.to_owned(),
                candidates: ratio(0),
                visited: ratio(1),
                distance_checks: ratio(2),
            }
        })
        .collect()
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
    /// The candidate's kernel work ratios, each beside the baseline's for
    /// the same corpus and backend when it has one. Information only:
    /// the counters behind them are what the gate compares.
    pub kernel_ratios: Vec<(Option<KernelRatios>, KernelRatios)>,
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
        for (baseline, candidate) in &self.kernel_ratios {
            let ratio = |pick: fn(&KernelRatios) -> f64| match baseline {
                Some(b) => format!("{:.2}x -> {:.2}x", pick(b), pick(candidate)),
                None => format!("{:.2}x", pick(candidate)),
            };
            out.push_str(&format!(
                "kernel {} {} / local: candidates {}, visited {}, distance checks {}\n",
                candidate.corpus,
                candidate.backend,
                ratio(|r| r.candidates),
                ratio(|r| r.visited),
                ratio(|r| r.distance_checks),
            ));
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
    let baseline_ratios = kernel_ratios(baseline);
    let mut comparison = Comparison {
        compared: 0,
        mismatches: Vec::new(),
        added: Vec::new(),
        removed: Vec::new(),
        kernel_ratios: kernel_ratios(candidate)
            .into_iter()
            .map(|c| {
                let b = baseline_ratios
                    .iter()
                    .find(|b| (&b.corpus, &b.backend) == (&c.corpus, &c.backend));
                (b.cloned(), c)
            })
            .collect(),
    };
    for base in &baseline.records {
        let Some(cand) = candidate.records.iter().find(|c| c.id == base.id) else {
            comparison.removed.push(base.id.clone());
            continue;
        };
        comparison.compared += 1;
        for ((counter, baseline), (_, candidate)) in base
            .counters
            .fields()
            .into_iter()
            .zip(cand.counters.fields())
        {
            if baseline != candidate {
                comparison.mismatches.push(Mismatch {
                    id: base.id.clone(),
                    counter,
                    baseline,
                    candidate,
                });
            }
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
    use crate::matrix::record::{synthetic_fixture, ServeCounters};

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
        let Counters::Job(job) = &mut cand.records[1].counters else {
            panic!("record 1 is a job row")
        };
        job.map_duplicates += 1;
        let Counters::Serve(sharded) = &mut cand.records[3].counters else {
            panic!("record 3 is a serving row")
        };
        sharded.shards_touched -= 1;
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
                (base.records[3].id.as_str(), "shards_touched")
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
        renamed.id = "job/clustered-60k/pSPQ".to_owned();
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
    fn kernel_ratios_are_printed_per_corpus_before_the_verdict() {
        let mut base = synthetic_fixture();
        base.records.remove(3);
        let local = base.records[2].clone();
        assert_eq!(local.id, "serve/uniform-120k/local");
        let Counters::Serve(local_kernel) = local.counters else {
            panic!("the local row is a serving row")
        };
        let with_kernel = |candidates, visited| {
            let mut row = local.clone();
            row.id = "serve/uniform-120k/sharded:4".to_owned();
            row.counters = Counters::Serve(ServeCounters {
                kernel_candidates: candidates,
                kernel_visited: visited,
                ..local_kernel
            });
            row
        };
        base.records.push(with_kernel(
            4 * local_kernel.kernel_candidates,
            20 * local_kernel.kernel_visited,
        ));
        let mut cand = base.clone();
        *cand.records.last_mut().unwrap() = with_kernel(
            local_kernel.kernel_candidates,
            5 * local_kernel.kernel_visited,
        );
        let ratios = kernel_ratios(&cand);
        assert_eq!(ratios.len(), 1);
        assert_eq!(
            (
                ratios[0].candidates,
                ratios[0].visited,
                ratios[0].distance_checks
            ),
            (1.0, 5.0, 1.0)
        );
        let text = compare_reports(&base, &cand).unwrap().render();
        let line = "kernel uniform-120k sharded:4 / local: \
                    candidates 4.00x -> 1.00x, visited 20.00x -> 5.00x, \
                    distance checks 1.00x -> 1.00x\n";
        assert!(text.contains(line), "{text}");
        assert!(text.ends_with("— FAILED\n"), "{text}");
        // A report with no sharded serving row has nothing to print.
        let mut plain = synthetic_fixture();
        plain.records.retain(|r| !r.id.contains("sharded"));
        assert!(kernel_ratios(&plain).is_empty());
    }

    #[test]
    fn unlike_configs_are_refused_but_workers_may_differ() {
        let base = synthetic_fixture();
        let mut cand = base.clone();
        cand.config.workers = 1;
        assert_eq!(compare_reports(&base, &cand).unwrap().failures(), 0);

        type Edit = fn(&mut ReportConfig);
        let edits: [(&str, Edit); 4] = [
            ("seed", |c| c.seed += 1),
            ("scale", |c| c.scale *= 2.0),
            ("queries", |c| c.queries += 1),
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
