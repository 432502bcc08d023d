//! Benchmarks-as-data: the declarative workload matrix behind
//! `spq-bench matrix` and `spq-bench compare`.
//!
//! The matrix is two tables, and every row has a stable, filterable id:
//!
//! ```text
//! job/{corpus}/{algorithm}      e.g.  job/uniform-120k/eSPQsco
//! serve/{corpus}/{backend}      e.g.  serve/uniform-120k/remote:2
//! ```
//!
//! The paper's algorithms differ only in the MapReduce job, so the job
//! table has one row per corpus and [`spq_core::Algorithm`]: one
//! [`spq_core::SpqExecutor::run_dataset`] per stream query. Every serving
//! backend answers with the same kernel whatever the algorithm, through
//! one entry point ([`spq_core::QueryExecutor::execute`]), so the serving
//! table has one row per corpus and backend (any parseable
//! [`spq_core::Backend`]: `local`, `sharded:N`, `remote:N`), measured on
//! sequential `execute` calls. The runner also serves the stream
//! concurrently and through the admission queue under 2× overload, and
//! asserts that both answer the same bytes and add up to the same
//! counters as the row. [`corpus::CORPORA`] names the dataset
//! shapes (uniform / clustered / Flickr-shaped). One runner
//! ([`runner::run_matrix`]) executes any glob-selected slice of both
//! tables and emits one versioned record format
//! ([`record::MatrixReport`] → `BENCH_MATRIX.json`), each record carrying
//! its table's deterministic work counters, bootstrap 95% confidence
//! intervals and Tukey outlier counts from [`criterion::stats`], and the
//! byte-identity assertion against one exact per-corpus reference
//! ([`spq_core::centralized::grid_index_topk`]). Two reports from
//! different commits are compared by [`compare::compare_reports`] — the
//! CI regression gate, an exact match on the counters.

pub mod compare;
pub mod corpus;
pub mod json;
pub mod record;
pub mod runner;

pub use compare::{compare_files, compare_reports, Comparison, KernelRatios, Mismatch};
pub use corpus::{CorpusShape, CorpusSpec, CORPORA};
pub use record::{
    Counters, JobCounters, MatrixRecord, MatrixReport, ServeCounters, SCHEMA_VERSION,
};
pub use runner::{run_matrix, MatrixConfig};

/// The id of a job-table row.
pub(crate) fn job_id(corpus: &str, algorithm: &str) -> String {
    format!("job/{corpus}/{algorithm}")
}

/// The id of a serving-table row.
pub(crate) fn serve_id(corpus: &str, backend: &str) -> String {
    format!("serve/{corpus}/{backend}")
}

/// Matches a benchmark id against a shell-style glob where `*` matches
/// any run of characters **including** `/` — so `*remote:*` selects every
/// remote row and `job/*` the job table. No other metacharacters.
pub fn glob_match(pattern: &str, id: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == id;
    }
    let mut rest = id;
    for (i, part) in parts.iter().enumerate() {
        if i == 0 {
            match rest.strip_prefix(part) {
                Some(r) => rest = r,
                None => return false,
            }
        } else if i == parts.len() - 1 {
            return part.is_empty() || rest.ends_with(part);
        } else if part.is_empty() {
            continue;
        } else {
            match rest.find(part) {
                Some(at) => rest = &rest[at + part.len()..],
                None => return false,
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_name_their_table() {
        assert_eq!(job_id("uniform-120k", "pSPQ"), "job/uniform-120k/pSPQ");
        assert_eq!(
            serve_id("uniform-120k", "remote:4"),
            "serve/uniform-120k/remote:4"
        );
    }

    #[test]
    fn globs_match_shell_style() {
        let id = "serve/uniform-120k/remote:4";
        assert!(glob_match(id, id)); // literal
        assert!(glob_match("*", id));
        assert!(glob_match("serve/uniform-120k/*", id));
        assert!(glob_match("*/uniform-120k/*", id));
        assert!(glob_match("*/remote:4", id));
        assert!(glob_match("*remote:*", id));
        assert!(glob_match("serve/uniform-*/remote:*", id));
        assert!(!glob_match("job/*", id));
        assert!(!glob_match("*/clustered-60k/*", id));
        assert!(!glob_match("*/local", id));
        assert!(!glob_match("serve/uniform-120k", id)); // literal, no star

        // A `*` crosses `/` by design: backend filters don't need to
        // know how many axes precede them.
        assert!(glob_match("*:4", id));
        assert!(glob_match("s*:4", id));
    }

    #[test]
    fn empty_and_degenerate_globs() {
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("**", "anything/at/all"));
        assert!(glob_match("*", ""));
    }
}
