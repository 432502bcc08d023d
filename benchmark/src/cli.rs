//! Command line: a run (the default) and `agree`.

use crate::agree;
use crate::corpus::{CLUSTERED_OBJECTS, UNIFORM_OBJECTS};
use crate::layers;
use crate::report::{context_json, number, quote, write_results, WorkloadReport};
use crate::workloads::{self, RunConfig, Spec, WORKLOADS};
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark/run.sh agree A.json B.json

  --workload NAME  serve-local | serve-open | serve-remote | batch-job (default: all four)
  --seed N         input seed (default 2017); shapes generated inputs only
  --seconds S      timed window per workload (default: run_seconds of BENCHMARK.json)
  --trace 0|1      0: end-to-end metrics, tracing off (default); 1: per-layer metrics
  --out FILE       result file (default benchmark/out/results.json)

  agree A.json B.json   compare two sets of runs against the bounds in BENCHMARK.json (each
                        side: one result file or a comma-separated list, judged by its
                        median); exit 1 on any out-of-bound pair";

/// Timed window when `--seconds` is absent; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Setting this environment variable to `1` flips one bit of one answer
/// before it is checked — proof that a wrong answer fails the command.
pub const CORRUPT_ENV: &str = "SPQ_BENCHMARK_CORRUPT";

/// Parsed arguments of a run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workloads to run, in report order.
    pub workloads: Vec<Spec>,
    /// Per-layer (`true`) or end-to-end (`false`) metrics.
    pub trace: bool,
    /// Result file.
    pub out: PathBuf,
    /// The run configuration.
    pub config: RunConfig,
}

fn value<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

/// Parses the arguments of a run. `root` is the checkout root; every
/// path the run touches is derived from it.
pub fn parse_run(args: &[String], root: &std::path::Path) -> Result<RunArgs, String> {
    let out_dir = root.join("benchmark").join("out");
    let target_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build"));
    let mut run = RunArgs {
        workloads: WORKLOADS.to_vec(),
        trace: false,
        out: out_dir.join("results.json"),
        config: RunConfig {
            seed: 2017,
            seconds: DEFAULT_SECONDS,
            nproc: std::thread::available_parallelism().map_or(2, |n| n.get()),
            uniform_objects: UNIFORM_OBJECTS,
            clustered_objects: CLUSTERED_OBJECTS,
            worker_bin: target_dir.join("release").join("spq-worker"),
            out_dir,
            corrupt_one_answer: std::env::var(CORRUPT_ENV).is_ok_and(|v| v == "1"),
        },
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut args, flag)?;
                let spec = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                run.workloads = vec![*spec];
            }
            "--seed" => run.config.seed = parsed(value(&mut args, flag)?, flag)?,
            "--seconds" => {
                run.config.seconds = parsed(value(&mut args, flag)?, flag)?;
                if !(run.config.seconds > 0.0 && run.config.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".to_owned());
                }
            }
            "--trace" => {
                run.trace = match value(&mut args, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => run.out = PathBuf::from(value(&mut args, flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(run)
}

/// Runs one workload, traced or not.
pub fn run_workload(spec: &Spec, trace: bool, cfg: &RunConfig) -> Result<WorkloadReport, String> {
    crate::procstat::reset_own_peak_rss();
    if trace {
        return layers::run(spec, cfg);
    }
    match spec.name {
        "serve-local" => workloads::serve_local::run(cfg),
        "serve-open" => workloads::serve_open::run(cfg),
        "serve-remote" => workloads::serve_remote::run(cfg),
        "batch-job" => workloads::batch_job::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run(run: &RunArgs) -> Result<bool, String> {
    let cfg = &run.config;
    let mut reports = Vec::new();
    let mut all_ok = true;
    for spec in &run.workloads {
        eprintln!(
            "[benchmark] {} seed={} seconds={} trace={}",
            spec.name, cfg.seed, cfg.seconds, run.trace as u8
        );
        let report = run_workload(spec, run.trace, cfg)?;
        print!("{}", report.table());
        // An invalid run is marked, not reported: no result line.
        if report.invalid.is_none() {
            println!("{}", report.result_line());
        }
        all_ok &= report.correct();
        reports.push(report);
    }
    let context = context_json(&[
        ("nproc", cfg.nproc.to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", number(cfg.seconds)),
        ("warmup_s", number(cfg.warmup().as_secs_f64())),
        ("trace", run.trace.to_string()),
        ("uniform_objects", cfg.uniform_objects.to_string()),
        ("clustered_objects", cfg.clustered_objects.to_string()),
        (
            "open_rate_qps",
            number(workloads::serve_open::OPEN_RATE_QPS),
        ),
        ("grid", crate::corpus::GRID.to_string()),
        ("k", crate::corpus::K.to_string()),
        ("worker_bin", quote(&cfg.worker_bin.display().to_string())),
    ]);
    write_results(&run.out, &context, &reports)?;
    eprintln!("[benchmark] results written to {}", run.out.display());
    Ok(all_ok)
}

/// Entry point: returns the process exit code. `0` = every operation of
/// every workload correct; `1` = a wrong, failed, rejected or shed
/// operation, an invalid run, or an out-of-bound `agree`; `2` = usage.
pub fn main_with_args(args: &[String], root: &std::path::Path) -> u8 {
    let usage = |message: &str| {
        eprintln!("benchmark: {message}\n{USAGE}");
        2
    };
    let outcome = match args.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return 0;
        }
        Some("agree") if args.len() != 3 => return usage("agree takes exactly two sides"),
        Some("agree") => agree::run(&args[1], &args[2], root),
        _ => match parse_run(args, root) {
            Ok(parsed) => run(&parsed),
            Err(message) => return usage(&message),
        },
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("benchmark: {message}");
            1
        }
    }
}
