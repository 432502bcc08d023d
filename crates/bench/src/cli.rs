//! Argument parsing for the `spq-bench` binary, split out of `main` so
//! the parser is unit-testable.
//!
//! Two hardening rules the old inline parser lacked:
//!
//! * Unknown flags are **errors** (exit with the usage string), never
//!   silently ignored.
//! * A value-taking flag refuses a following token that looks like a
//!   flag, so `--out --whoops` reports a missing value instead of
//!   silently swallowing `--whoops` as the output path (and then
//!   ignoring whatever it was meant to do).

use crate::matrix::MatrixConfig;

/// The usage string printed on `--help` and on parse errors.
pub const USAGE: &str = "usage: spq-bench matrix|compare ...\n\
spq-bench matrix [--filter GLOB] [--backend local|sharded:N|remote:N]... \
     [--scale F] [--seed N] [--workers N] [--queries N] [--batch N] \
     [--out FILE]\n\
    Runs the declarative benchmark matrix (corpus x algorithm x backend x \
mode; ids like uniform-120k/pSPQ/remote:4/execute-batch, selected by a \
'*'-glob over full ids) and writes the versioned record document \
(default BENCH_MATRIX.json): deterministic work counters, bootstrap 95% \
CIs, Tukey outlier counts, byte-identity attestation per record.\n\
spq-bench compare BASELINE.json CANDIDATE.json\n\
    Exact-matches the deterministic counters of every baseline id \
against the candidate and exits 1 on any differing counter or any \
baseline id missing from the candidate, 2 on unreadable documents or \
documents run with a different seed/scale/queries/batch/filter \
(timings are carried as information and never compared) — the CI \
regression gate.";

/// The `matrix` subcommand's options.
#[derive(Debug, Clone)]
pub struct MatrixCli {
    /// Runner configuration (corpora filter, backends, stream shape).
    pub config: MatrixConfig,
    /// Output path of the matrix document.
    pub out: String,
}

/// The `compare` subcommand's options.
#[derive(Debug, Clone)]
pub struct CompareCli {
    /// Path of the baseline document.
    pub baseline: String,
    /// Path of the candidate document.
    pub candidate: String,
}

/// Parse outcome: run a subcommand, or print usage and exit 0.
#[derive(Debug, Clone)]
pub enum Command {
    /// `spq-bench matrix ...`: the declarative benchmark matrix.
    Matrix(Box<MatrixCli>),
    /// `spq-bench compare ...`: the regression gate.
    Compare(CompareCli),
    /// `--help`/`-h` was given.
    Help,
}

/// Parses the argument list (without the program name). Errors carry a
/// human-readable message; callers print it with [`USAGE`] and exit 2.
/// There is no default mode: a bare invocation is an error.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("matrix") => parse_matrix(&args[1..]),
        Some("compare") => parse_compare(&args[1..]),
        Some("--help" | "-h") => Ok(Command::Help),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None => Err("missing subcommand".to_owned()),
    }
}

/// Parses `spq-bench matrix ...` (arguments after the subcommand name).
fn parse_matrix(args: &[String]) -> Result<Command, String> {
    let mut config = MatrixConfig::default();
    let mut backends: Vec<spq_core::Backend> = Vec::new();
    let mut out = String::from("BENCH_MATRIX.json");

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || -> Result<String, String> {
            i += 1;
            match args.get(i) {
                Some(v) if !v.starts_with("--") => Ok(v.clone()),
                _ => Err(format!("missing value for {flag}")),
            }
        };
        fn parsed<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        match flag {
            "--filter" => config.filter = Some(value()?),
            "--backend" => backends.push(value()?.parse::<spq_core::Backend>()?),
            "--scale" => config.scale = parsed(flag, value()?)?,
            "--seed" => config.seed = parsed(flag, value()?)?,
            "--workers" => config.workers = parsed(flag, value()?)?,
            "--queries" => config.queries = parsed(flag, value()?)?,
            "--batch" => config.batch = parsed(flag, value()?)?,
            "--out" => out = value()?,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown matrix argument {other:?}")),
        }
        i += 1;
    }
    if !backends.is_empty() {
        config.backends = backends;
    }
    Ok(Command::Matrix(Box::new(MatrixCli { config, out })))
}

/// Parses `spq-bench compare BASELINE CANDIDATE`.
fn parse_compare(args: &[String]) -> Result<Command, String> {
    let mut paths: Vec<String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with("--") => {
                return Err(format!("unknown compare argument {other:?}"))
            }
            path => paths.push(path.to_owned()),
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        return Err(format!(
            "compare needs exactly two document paths, got {}",
            paths.len()
        ));
    };
    Ok(Command::Compare(CompareCli {
        baseline: baseline.clone(),
        candidate: candidate.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    fn matrix(args: &[&str]) -> MatrixCli {
        match parse(args).unwrap() {
            Command::Matrix(m) => *m,
            other => panic!("expected Matrix, got {other:?}"),
        }
    }

    #[test]
    fn bare_invocation_and_unknown_subcommands_are_errors() {
        let err = parse(&[]).unwrap_err();
        assert!(err.contains("missing subcommand"), "{err}");
        let err = parse(&["trajectory"]).unwrap_err();
        assert!(err.contains("unknown subcommand"), "{err}");
        // A flag is not a subcommand.
        assert!(parse(&["--scale", "0.1"]).is_err());
        assert!(parse(&["--backend", "local"]).is_err());
        assert!(parse(&["--synthesize", "1000"]).is_err());
    }

    #[test]
    fn remote_backends_parse_with_a_worker_count() {
        use spq_core::Backend;
        let m = matrix(&["matrix", "--backend", "remote:3", "--backend", "remote:1"]);
        assert_eq!(
            m.config.backends,
            vec![
                Backend::Remote { workers: 3 },
                Backend::Remote { workers: 1 }
            ]
        );
    }

    #[test]
    fn bad_backend_names_are_errors() {
        // Bare `remote` stays an error: the worker count is the contract.
        assert!(parse(&["matrix", "--backend", "remote"]).is_err());
        assert!(parse(&["matrix", "--backend", "remote:0"]).is_err());
        assert!(parse(&["matrix", "--backend", "remote:x"]).is_err());
        assert!(parse(&["matrix", "--backend", "sharded:0"]).is_err());
        let err = parse(&["matrix", "--backend"]).unwrap_err();
        assert!(err.contains("missing value for --backend"), "{err}");
    }

    #[test]
    fn unknown_flags_are_errors_anywhere() {
        assert!(parse(&["matrix", "--bogus"]).is_err());
        // The regression this parser exists for: an unknown flag after
        // --out must error, not be swallowed as the value of --out.
        let err = parse(&["matrix", "--out", "--bogus"]).unwrap_err();
        assert!(err.contains("missing value for --out"), "{err}");
        assert!(parse(&["matrix", "--scale", "0.1", "--nope", "x"]).is_err());
    }

    #[test]
    fn missing_and_bad_values_are_errors() {
        let err = parse(&["matrix", "--seed"]).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        let err = parse(&["matrix", "--seed", "abc"]).unwrap_err();
        assert!(err.contains("bad value"), "{err}");
        assert!(parse(&["matrix", "--batch"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        assert!(matches!(parse(&["--help"]).unwrap(), Command::Help));
        assert!(matches!(parse(&["-h"]).unwrap(), Command::Help));
        assert!(matches!(
            parse(&["matrix", "--help"]).unwrap(),
            Command::Help
        ));
        assert!(matches!(parse(&["compare", "-h"]).unwrap(), Command::Help));
    }

    #[test]
    fn matrix_subcommand_defaults_and_flags() {
        use spq_core::Backend;
        let m = matrix(&["matrix"]);
        assert_eq!(m.out, "BENCH_MATRIX.json");
        assert!(m.config.filter.is_none());
        assert_eq!(
            m.config.backends,
            vec![
                Backend::Local,
                Backend::Sharded { shards: 4 },
                Backend::Remote { workers: 2 }
            ]
        );

        let m = matrix(&[
            "matrix",
            "--filter",
            "remote:*",
            "--backend",
            "local",
            "--backend",
            "sharded:2",
            "--scale",
            "0.05",
            "--seed",
            "7",
            "--workers",
            "2",
            "--queries",
            "16",
            "--batch",
            "4",
            "--out",
            "m.json",
        ]);
        assert_eq!(m.config.filter.as_deref(), Some("remote:*"));
        assert_eq!(
            m.config.backends,
            vec![Backend::Local, Backend::Sharded { shards: 2 }]
        );
        assert_eq!(m.config.scale, 0.05);
        assert_eq!(m.config.seed, 7);
        assert_eq!(m.config.workers, 2);
        assert_eq!(m.config.queries, 16);
        assert_eq!(m.config.batch, 4);
        assert_eq!(m.out, "m.json");
    }

    #[test]
    fn matrix_rejects_bad_flags_and_values() {
        assert!(parse(&["matrix", "--bogus"]).is_err());
        assert!(parse(&["matrix", "--filter"]).is_err());
        assert!(parse(&["matrix", "--filter", "--out"]).is_err());
        assert!(parse(&["matrix", "--backend", "remote"]).is_err());
        assert!(parse(&["matrix", "--queries", "x"]).is_err());
    }

    #[test]
    fn compare_subcommand_takes_two_paths() {
        let Command::Compare(c) = parse(&["compare", "a.json", "b.json"]).unwrap() else {
            panic!("expected Compare")
        };
        assert_eq!(c.baseline, "a.json");
        assert_eq!(c.candidate, "b.json");
    }

    #[test]
    fn compare_rejects_wrong_arity_and_flags() {
        assert!(parse(&["compare"]).is_err());
        assert!(parse(&["compare", "a.json"]).is_err());
        assert!(parse(&["compare", "a", "b", "c"]).is_err());
        assert!(parse(&["compare", "a", "b", "--nope"]).is_err());
        // The gate is an exact match: there is no threshold to pass.
        assert!(parse(&["compare", "a", "b", "--threshold", "1.0"]).is_err());
    }
}
