//! Benchmarks-as-data: the declarative workload matrix behind
//! `spq-bench matrix` and `spq-bench compare`.
//!
//! Every benchmark in the matrix has a stable, filterable id of the form
//!
//! ```text
//! {corpus}/{algorithm}/{backend}/{mode}
//! e.g.  uniform-120k/pSPQ/remote:4/execute-batch
//! ```
//!
//! where the four axes are data, not code: [`corpus::CORPORA`] names the
//! dataset shapes (uniform / clustered / Flickr-shaped), the algorithms
//! are [`spq_core::Algorithm::ALL`], the backends any parseable
//! [`spq_core::Backend`] (`local`, `sharded:N`, `remote:N`), and the
//! modes the four facade lifecycles ([`corpus::Mode`]). One runner
//! ([`runner::run_matrix`]) executes any glob-selected slice of the
//! product and emits one versioned record format ([`record::MatrixReport`]
//! → `BENCH_MATRIX.json`), each record carrying a block of deterministic
//! work counters, bootstrap 95% confidence intervals and Tukey outlier
//! counts from [`criterion::stats`], and the byte-identity assertion
//! against the paper's job. Two reports from different commits
//! are compared by [`compare::compare_reports`] — the CI regression
//! gate, an exact match on the counters.

pub mod compare;
pub mod corpus;
pub mod json;
pub mod record;
pub mod runner;

pub use compare::{compare_files, compare_reports, Comparison, Mismatch};
pub use corpus::{CorpusShape, CorpusSpec, Mode, CORPORA};
pub use record::{Counters, MatrixRecord, MatrixReport, SCHEMA_VERSION};
pub use runner::{run_matrix, MatrixConfig};

/// Builds the canonical benchmark id from its four axes.
pub fn bench_id(corpus: &str, algorithm: &str, backend: &str, mode: &str) -> String {
    format!("{corpus}/{algorithm}/{backend}/{mode}")
}

/// Matches a benchmark id against a shell-style glob where `*` matches
/// any run of characters **including** `/` — so `remote:*` selects every
/// remote backend and `*/pSPQ/*` every pSPQ row. No other metacharacters.
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
    fn ids_compose_the_four_axes() {
        assert_eq!(
            bench_id("uniform-120k", "pSPQ", "remote:4", "execute-batch"),
            "uniform-120k/pSPQ/remote:4/execute-batch"
        );
    }

    #[test]
    fn globs_match_shell_style() {
        let id = "uniform-120k/pSPQ/remote:4/execute-batch";
        assert!(glob_match(id, id)); // literal
        assert!(glob_match("*", id));
        assert!(glob_match("uniform-120k/*", id));
        assert!(glob_match("*/execute-batch", id));
        assert!(glob_match("*remote:*", id));
        assert!(glob_match("*/pSPQ/*", id));
        assert!(glob_match("uniform-*/pSPQ/*/execute-batch", id));
        assert!(!glob_match("clustered-60k/*", id));
        assert!(!glob_match("*/serve", id));
        assert!(!glob_match("uniform-120k", id)); // literal, no star

        // A `*` crosses `/` by design: backend filters don't need to
        // know how many axes precede them.
        assert!(glob_match("*:4/*", id));
    }

    #[test]
    fn empty_and_degenerate_globs() {
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("**", "anything/at/all"));
        assert!(glob_match("*", ""));
    }
}
