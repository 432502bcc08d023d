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

use crate::ingest_bench::IngestBenchConfig;
use crate::matrix::{MatrixConfig, DEFAULT_THRESHOLD};
use crate::trajectory::TrajectoryConfig;

/// The usage string printed on `--help` and on parse errors.
pub const USAGE: &str = "usage: spq-bench [matrix|compare] ...\n\
spq-bench matrix [--filter GLOB] [--backend local|sharded:N|remote:N]... \
     [--scale F] [--seed N] [--workers N] [--queries N] [--batch N] \
     [--out FILE]\n\
    Runs the declarative benchmark matrix (corpus x algorithm x backend x \
mode; ids like uniform-120k/pSPQ/remote:4/execute-batch, selected by a \
'*'-glob over full ids) and writes the versioned record document \
(default BENCH_MATRIX.json): bootstrap 95% CIs, Tukey outlier counts, \
byte-identity attestation per record.\n\
spq-bench compare BASELINE.json CANDIDATE.json [--threshold F]\n\
    Classifies each shared benchmark id as improved/regressed/unchanged \
by CI-interval overlap plus a relative mean threshold (default 0.05), \
prints a markdown table, and exits 1 if anything regressed (2 on \
unreadable documents) — the CI regression gate.\n\
spq-bench [--scale F] [--seed N] [--workers N] [--repeats N] \
     [--queries N] [--grid N] [--out FILE] \
     [--data-tsv FILE --features-tsv FILE] [--ingest-out FILE] \
     [--ingest-queries N] [--ingest-batch N] [--synthesize N] \
     [--backend local|sharded|sharded:N|remote:N]... [--backend-out FILE] \
     [--backend-queries N] [--backend-batch N]\n\
With --data-tsv/--features-tsv the binary benches the loaded dump \
(writing --ingest-out, default BENCH_INGEST.json) instead of the \
generated-dataset trajectories; --synthesize N first writes a \
deterministic N-object dump to those two paths.\n\
With --backend (repeatable) the binary instead benches the typed-facade \
backend matrix over the dump (or a generated dataset when no TSV paths \
are given), asserting byte-identity across backends and writing \
--backend-out (default BENCH_PR5.json). remote:N serves through N TCP \
worker processes — self-hosted unless SPQ_REMOTE_WORKERS names N \
host:port addresses — and reports frame bytes and retries per query \
(CI writes this matrix to BENCH_PR6.json).";

/// Everything `main` needs for one run.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Zero-copy trajectory section configuration.
    pub trajectory: TrajectoryConfig,
    /// Output path of the trajectory document.
    pub out: String,
    /// Loaded-dataset mode, when `--data-tsv`/`--features-tsv` are given.
    pub ingest: Option<IngestCli>,
    /// Backend-matrix mode, when any `--backend` is given.
    pub backend: Option<BackendCli>,
}

/// The backend-matrix mode's options.
#[derive(Debug, Clone)]
pub struct BackendCli {
    /// Backends to measure, in flag order.
    pub backends: Vec<spq_core::Backend>,
    /// Output path of the backend-matrix document.
    pub out: String,
    /// Length of the measured query stream.
    pub queries: usize,
    /// Batch size for `execute-batch`.
    pub batch: usize,
}

/// The loaded-dataset mode's options.
#[derive(Debug, Clone)]
pub struct IngestCli {
    /// Bench configuration (paths, stream shape, workers, grid).
    pub config: IngestBenchConfig,
    /// Output path of the ingest document.
    pub out: String,
    /// Synthesize an N-object dump to the two paths before ingesting.
    pub synthesize: Option<usize>,
}

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
    /// Relative mean-shift threshold.
    pub threshold: f64,
}

/// Parse outcome: run with options, or print usage and exit 0.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run the bench with these options.
    Run(Box<CliOptions>),
    /// `spq-bench matrix ...`: the declarative benchmark matrix.
    Matrix(Box<MatrixCli>),
    /// `spq-bench compare ...`: the regression gate.
    Compare(CompareCli),
    /// `--help`/`-h` was given.
    Help,
}

/// Parses the argument list (without the program name). Errors carry a
/// human-readable message; callers print it with [`USAGE`] and exit 2.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("matrix") => return parse_matrix(&args[1..]),
        Some("compare") => return parse_compare(&args[1..]),
        _ => {}
    }
    let mut cfg = TrajectoryConfig::default();
    let mut out = String::from("BENCH_PR2.json");
    let mut ingest_out = String::from("BENCH_INGEST.json");
    let mut data_tsv: Option<String> = None;
    let mut features_tsv: Option<String> = None;
    let mut ingest_queries = 32usize;
    let mut ingest_batch = 8usize;
    let mut synthesize: Option<usize> = None;
    let mut backends: Vec<spq_core::Backend> = Vec::new();
    let mut backend_out = String::from("BENCH_PR5.json");
    let mut backend_queries = 24usize;
    let mut backend_batch = 8usize;

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
            "--scale" => cfg.scale = parsed(flag, value()?)?,
            "--seed" => cfg.seed = parsed(flag, value()?)?,
            "--workers" => cfg.workers = parsed(flag, value()?)?,
            "--repeats" => cfg.repeats = parsed(flag, value()?)?,
            "--queries" => cfg.queries = parsed(flag, value()?)?,
            "--grid" => cfg.grid = parsed(flag, value()?)?,
            "--out" => out = value()?,
            "--data-tsv" => data_tsv = Some(value()?),
            "--features-tsv" => features_tsv = Some(value()?),
            "--ingest-out" => ingest_out = value()?,
            "--ingest-queries" => ingest_queries = parsed(flag, value()?)?,
            "--ingest-batch" => ingest_batch = parsed(flag, value()?)?,
            "--synthesize" => synthesize = Some(parsed(flag, value()?)?),
            "--backend" => backends.push(value()?.parse::<spq_core::Backend>()?),
            "--backend-out" => backend_out = value()?,
            "--backend-queries" => backend_queries = parsed(flag, value()?)?,
            "--backend-batch" => backend_batch = parsed(flag, value()?)?,
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let ingest = match (data_tsv, features_tsv) {
        (Some(data), Some(features)) => Some(IngestCli {
            config: IngestBenchConfig {
                data_tsv: data.into(),
                features_tsv: features.into(),
                seed: cfg.seed,
                workers: cfg.workers,
                queries: ingest_queries,
                batch: ingest_batch,
                grid: cfg.grid,
                ..IngestBenchConfig::default()
            },
            out: ingest_out,
            synthesize,
        }),
        (None, None) => {
            if synthesize.is_some() {
                return Err(
                    "--synthesize needs --data-tsv and --features-tsv output paths".to_owned(),
                );
            }
            None
        }
        _ => return Err("--data-tsv and --features-tsv must be given together".to_owned()),
    };

    let backend = if backends.is_empty() {
        None
    } else {
        Some(BackendCli {
            backends,
            out: backend_out,
            queries: backend_queries,
            batch: backend_batch,
        })
    };

    Ok(Command::Run(Box::new(CliOptions {
        trajectory: cfg,
        out,
        ingest,
        backend,
    })))
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

/// Parses `spq-bench compare BASELINE CANDIDATE [--threshold F]`.
fn parse_compare(args: &[String]) -> Result<Command, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--threshold" => {
                i += 1;
                let v = match args.get(i) {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err("missing value for --threshold".to_owned()),
                };
                threshold = v
                    .parse()
                    .map_err(|_| format!("bad value {v:?} for --threshold"))?;
                if !(0.0..=10.0).contains(&threshold) {
                    return Err(format!("--threshold {threshold} out of range [0, 10]"));
                }
            }
            "--help" | "-h" => return Ok(Command::Help),
            other if other.starts_with("--") => {
                return Err(format!("unknown compare argument {other:?}"))
            }
            path => paths.push(path.to_owned()),
        }
        i += 1;
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
        threshold,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    fn run(args: &[&str]) -> CliOptions {
        match parse(args).unwrap() {
            Command::Run(o) => *o,
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn defaults_without_flags() {
        let o = run(&[]);
        assert_eq!(o.out, "BENCH_PR2.json");
        assert!(o.ingest.is_none());
        assert!(o.backend.is_none());
    }

    #[test]
    fn backend_flags_accumulate() {
        use spq_core::Backend;
        let o = run(&[
            "--backend",
            "local",
            "--backend",
            "sharded:4",
            "--backend-out",
            "b5.json",
            "--backend-queries",
            "12",
            "--backend-batch",
            "6",
        ]);
        let backend = o.backend.expect("backend mode");
        assert_eq!(
            backend.backends,
            vec![Backend::Local, Backend::Sharded { shards: 4 }]
        );
        assert_eq!(backend.out, "b5.json");
        assert_eq!(backend.queries, 12);
        assert_eq!(backend.batch, 6);
    }

    #[test]
    fn backend_mode_combines_with_dump_paths() {
        let o = run(&[
            "--backend",
            "sharded",
            "--data-tsv",
            "d.tsv",
            "--features-tsv",
            "f.tsv",
            "--synthesize",
            "1000",
        ]);
        assert!(o.backend.is_some());
        assert!(o.ingest.is_some());
    }

    #[test]
    fn remote_backends_parse_with_a_worker_count() {
        use spq_core::Backend;
        let o = run(&["--backend", "remote:3", "--backend", "remote:1"]);
        assert_eq!(
            o.backend.expect("backend mode").backends,
            vec![
                Backend::Remote { workers: 3 },
                Backend::Remote { workers: 1 }
            ]
        );
    }

    #[test]
    fn bad_backend_names_are_errors() {
        // Bare `remote` stays an error: the worker count is the contract.
        assert!(parse(&["--backend", "remote"]).is_err());
        assert!(parse(&["--backend", "remote:0"]).is_err());
        assert!(parse(&["--backend", "remote:x"]).is_err());
        assert!(parse(&["--backend", "sharded:0"]).is_err());
        let err = parse(&["--backend"]).unwrap_err();
        assert!(err.contains("missing value for --backend"), "{err}");
    }

    #[test]
    fn parses_shared_flags() {
        let o = run(&[
            "--scale",
            "0.5",
            "--seed",
            "9",
            "--workers",
            "3",
            "--repeats",
            "2",
            "--queries",
            "4",
            "--grid",
            "20",
            "--out",
            "a.json",
        ]);
        assert_eq!(o.trajectory.scale, 0.5);
        assert_eq!(o.trajectory.seed, 9);
        assert_eq!(o.trajectory.workers, 3);
        assert_eq!(o.trajectory.repeats, 2);
        assert_eq!(o.trajectory.queries, 4);
        assert_eq!(o.trajectory.grid, 20);
        assert_eq!(o.out, "a.json");
    }

    #[test]
    fn unknown_flags_are_errors_anywhere() {
        assert!(parse(&["--bogus"]).is_err());
        // The regression this parser exists for: an unknown flag after
        // --out must error, not be swallowed as the value of --out.
        let err = parse(&["--out", "--bogus"]).unwrap_err();
        assert!(err.contains("missing value for --out"), "{err}");
        assert!(parse(&["--scale", "0.1", "--nope", "x"]).is_err());
    }

    #[test]
    fn missing_and_bad_values_are_errors() {
        assert!(parse(&["--seed"]).unwrap_err().contains("missing value"));
        assert!(parse(&["--seed", "abc"]).unwrap_err().contains("bad value"));
        assert!(parse(&["--ingest-batch"]).is_err());
        // The removed QPS flags are unknown arguments now.
        assert!(parse(&["--qps-batch", "4"]).is_err());
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
        let Command::Matrix(m) = parse(&["matrix"]).unwrap() else {
            panic!("expected Matrix")
        };
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

        let Command::Matrix(m) = parse(&[
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
        ])
        .unwrap() else {
            panic!("expected Matrix")
        };
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
        assert_eq!(c.threshold, crate::matrix::DEFAULT_THRESHOLD);

        let Command::Compare(c) =
            parse(&["compare", "a.json", "b.json", "--threshold", "1.0"]).unwrap()
        else {
            panic!("expected Compare")
        };
        assert_eq!(c.threshold, 1.0);
    }

    #[test]
    fn compare_rejects_wrong_arity_and_bad_thresholds() {
        assert!(parse(&["compare"]).is_err());
        assert!(parse(&["compare", "a.json"]).is_err());
        assert!(parse(&["compare", "a", "b", "c"]).is_err());
        assert!(parse(&["compare", "a", "b", "--threshold"]).is_err());
        assert!(parse(&["compare", "a", "b", "--threshold", "-1"]).is_err());
        assert!(parse(&["compare", "a", "b", "--threshold", "99"]).is_err());
        assert!(parse(&["compare", "a", "b", "--nope"]).is_err());
    }

    #[test]
    fn ingest_mode_requires_both_paths() {
        let err = parse(&["--data-tsv", "d.tsv"]).unwrap_err();
        assert!(err.contains("must be given together"));
        let err = parse(&["--synthesize", "1000"]).unwrap_err();
        assert!(err.contains("--synthesize needs"));

        let o = run(&[
            "--data-tsv",
            "d.tsv",
            "--features-tsv",
            "f.tsv",
            "--ingest-out",
            "i.json",
            "--ingest-queries",
            "16",
            "--ingest-batch",
            "4",
            "--synthesize",
            "5000",
            "--seed",
            "7",
            "--grid",
            "10",
        ]);
        let ingest = o.ingest.expect("ingest mode");
        assert_eq!(ingest.config.data_tsv.to_str(), Some("d.tsv"));
        assert_eq!(ingest.config.features_tsv.to_str(), Some("f.tsv"));
        assert_eq!(ingest.out, "i.json");
        assert_eq!(ingest.config.queries, 16);
        assert_eq!(ingest.config.batch, 4);
        assert_eq!(ingest.synthesize, Some(5000));
        assert_eq!(ingest.config.seed, 7);
        assert_eq!(ingest.config.grid, 10);
    }
}
