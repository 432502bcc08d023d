//! `spq-bench`: the benchmark matrix and its counter gate.
//!
//! Flags are parsed by [`spq_bench::cli`] (see [`spq_bench::cli::USAGE`]).
//! Two subcommands and no default mode: `matrix` runs a slice of the
//! declarative matrix and writes `BENCH_MATRIX.json`; `compare`
//! exact-matches the deterministic counters of two such documents.
//! Wall-clock claims are made with `bash benchmark/run.sh`, not here.

use spq_bench::cli::{parse_args, Command, CompareCli, MatrixCli, USAGE};
use spq_bench::matrix::{compare_files, run_matrix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Matrix(matrix)) => run_matrix_mode(&matrix),
        Ok(Command::Compare(compare)) => run_compare_mode(&compare),
        Ok(Command::Help) => eprintln!("{USAGE}"),
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2)
        }
    }
}

/// `spq-bench matrix`: runs the declarative benchmark matrix and writes
/// the versioned `BENCH_MATRIX.json` document.
fn run_matrix_mode(matrix: &MatrixCli) {
    let report = run_matrix(&matrix.config);
    std::fs::write(&matrix.out, report.to_json()).expect("write matrix report");
    println!("wrote {} ({} records)", matrix.out, report.records.len());
    println!(
        "\n{:<52}{:>9}{:>24}{:>24}{:>10}",
        "benchmark", "qps", "mean ms [95% CI]", "p99 ms [95% CI]", "outliers"
    );
    for r in &report.records {
        println!(
            "{:<52}{:>9.1}{:>10.3} [{:.3}, {:.3}]{:>10.3} [{:.3}, {:.3}]{:>10}",
            r.id,
            r.qps,
            r.mean_ms.point,
            r.mean_ms.lo,
            r.mean_ms.hi,
            r.p99_ms.point,
            r.p99_ms.lo,
            r.p99_ms.hi,
            r.outliers.total()
        );
    }
    if !report.records.is_empty() {
        println!("\nall records byte-identical to the single-store engine");
    }
}

/// `spq-bench compare`: the regression gate. Exit 0 = every baseline
/// id present with identical counters, 1 = a counter differs or a
/// baseline id is missing, 2 = unreadable or not like-for-like documents.
fn run_compare_mode(compare: &CompareCli) {
    let comparison = match compare_files(
        std::path::Path::new(&compare.baseline),
        std::path::Path::new(&compare.candidate),
    ) {
        Ok(comparison) => comparison,
        Err(message) => {
            eprintln!("compare failed: {message}");
            std::process::exit(2)
        }
    };
    print!("{}", comparison.render());
    if comparison.failures() > 0 {
        std::process::exit(1)
    }
}
