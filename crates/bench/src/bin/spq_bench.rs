//! The perf-trajectory binary: `cargo run -p spq-bench --release`.
//!
//! Flags are parsed by [`spq_bench::cli`] (see [`spq_bench::cli::USAGE`]).
//! Two operating modes:
//!
//! 1. **Generated datasets** (default): writes the zero-copy trajectory
//!    (`BENCH_PR2.json` — fig7-uniform + fig9-clustered vs the fossilised
//!    pre-refactor baseline).
//! 2. **Loaded dataset** (`--data-tsv F --features-tsv F`): ingests an
//!    external TSV dump (optionally synthesizing it first with
//!    `--synthesize N`), benches a job-per-query pass and the three
//!    facade modes over it with byte-identity asserted against the
//!    in-memory path, and writes `BENCH_INGEST.json` including ingest
//!    throughput in objects/sec.

use spq_bench::backend_bench::{
    backend_to_json, run_backend_bench, BackendBenchConfig, BackendSource,
};
use spq_bench::cli::{
    parse_args, BackendCli, CliOptions, Command, CompareCli, IngestCli, MatrixCli, USAGE,
};
use spq_bench::ingest_bench::{ingest_to_json, run_ingest_bench, IngestReport};
use spq_bench::matrix::{compare_files, run_matrix};
use spq_bench::trajectory::{run_trajectory, to_json};
use spq_data::ingest::{synthesize_dump, DumpConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(Command::Run(options)) => *options,
        Ok(Command::Matrix(matrix)) => {
            run_matrix_mode(&matrix);
            return;
        }
        Ok(Command::Compare(compare)) => {
            run_compare_mode(&compare);
            return;
        }
        Ok(Command::Help) => {
            eprintln!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2)
        }
    };

    if let Some(backend) = &options.backend {
        run_backend_mode(backend, &options);
        return;
    }

    if let Some(ingest) = options.ingest {
        run_ingest_mode(&ingest);
        return;
    }

    let reports = run_trajectory(&options.trajectory);
    let json = to_json(&options.trajectory, &reports);
    std::fs::write(&options.out, &json).expect("write bench report");

    println!("wrote {}", options.out);
    for w in &reports {
        println!("\n{} ({} objects):", w.id, w.objects);
        println!(
            "  {:<10}{:>14}{:>14}{:>10}{:>12}{:>12}{:>8}",
            "algorithm", "baseline ms", "current ms", "speedup", "B/rec old", "B/rec new", "ratio"
        );
        for c in &w.comparisons {
            println!(
                "  {:<10}{:>14.2}{:>14.2}{:>9.2}x{:>12.1}{:>12.1}{:>7.1}x",
                c.algorithm.name(),
                c.baseline.phases.total_ms,
                c.current.phases.total_ms,
                c.speedup(),
                c.baseline.bytes_per_record,
                c.current.bytes_per_record,
                c.bytes_per_record_ratio(),
            );
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

/// `spq-bench compare`: the regression gate. Exit 0 = clean, 1 = at
/// least one id regressed, 2 = a document was unreadable.
fn run_compare_mode(compare: &CompareCli) {
    let comparison = match compare_files(
        std::path::Path::new(&compare.baseline),
        std::path::Path::new(&compare.candidate),
        compare.threshold,
    ) {
        Ok(comparison) => comparison,
        Err(message) => {
            eprintln!("compare failed: {message}");
            std::process::exit(2)
        }
    };
    println!("{}", comparison.to_markdown());
    if comparison.regressions() > 0 {
        std::process::exit(1)
    }
}

/// The backend-matrix mode: `--backend` (repeatable), writing
/// `BENCH_PR5.json`. Uses the dump paths when given (synthesizing first
/// when asked), a generated dataset otherwise.
fn run_backend_mode(backend: &BackendCli, options: &CliOptions) {
    let source = match &options.ingest {
        Some(ingest) => {
            synthesize_if_requested(ingest);
            BackendSource::Loaded {
                data_tsv: ingest.config.data_tsv.clone(),
                features_tsv: ingest.config.features_tsv.clone(),
            }
        }
        None => BackendSource::Generated {
            scale: options.trajectory.scale,
        },
    };
    let cfg = BackendBenchConfig {
        backends: backend.backends.clone(),
        source,
        seed: options.trajectory.seed,
        workers: options.trajectory.workers,
        queries: backend.queries,
        batch: backend.batch,
        grid: options.trajectory.grid,
        ..BackendBenchConfig::default()
    };
    let report = match run_backend_bench(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("backend bench failed: {e}");
            std::process::exit(1)
        }
    };
    let json = backend_to_json(&cfg, &report);
    std::fs::write(&backend.out, &json).expect("write backend report");

    println!("wrote {}", backend.out);
    println!(
        "\n{} ({} objects, {} requests, batch {}, {} workers) — all backends byte-identical to the single-store engine:",
        report.id, report.objects, cfg.queries, cfg.batch, cfg.workers
    );
    for section in &report.backends {
        println!(
            "  backend {} (built in {:.0} ms):",
            section.backend, section.build_ms
        );
        for a in &section.algorithms {
            println!(
                "    {}: shards/query {:.1}, wire B/query {:.0}, plan-cache hit rate {:.2}",
                a.algorithm.name(),
                a.stats.mean_shards_touched,
                a.stats.mean_shuffle_bytes,
                a.stats.plan_cache_hit_rate
            );
            for m in &a.modes {
                println!(
                    "      {:<14}{:>10.1} qps{:>12.3} p50 ms{:>12.3} p99 ms",
                    m.id, m.qps, m.p50_ms, m.p99_ms
                );
            }
        }
    }
}

fn synthesize_if_requested(ingest: &IngestCli) {
    if let Some(objects) = ingest.synthesize {
        let summary = synthesize_dump(
            &DumpConfig {
                objects,
                seed: ingest.config.seed,
            },
            &ingest.config.data_tsv,
            &ingest.config.features_tsv,
        )
        .expect("synthesize dump");
        println!(
            "synthesized {} data + {} feature objects ({} keywords) into {} / {}",
            summary.data_objects,
            summary.feature_objects,
            summary.keywords,
            ingest.config.data_tsv.display(),
            ingest.config.features_tsv.display()
        );
    }
}

fn run_ingest_mode(ingest: &IngestCli) {
    synthesize_if_requested(ingest);

    let report: IngestReport = match run_ingest_bench(&ingest.config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("ingest failed: {e}");
            std::process::exit(1)
        }
    };
    let json = ingest_to_json(&ingest.config, &report);
    std::fs::write(&ingest.out, &json).expect("write ingest report");

    println!("wrote {}", ingest.out);
    let i = &report.ingest;
    println!(
        "\n{}: {} objects ({} data + {} features), {} vocabulary terms",
        report.id, i.objects, i.data_objects, i.feature_objects, i.vocab_terms
    );
    println!(
        "  ingest: {:.0} ms, {:.0} objects/s ({} lines, {} skipped)",
        i.wall_ms, i.objects_per_sec, i.lines, i.skipped
    );
    println!("  all serving modes byte-identical to the in-memory job-per-query path");
    for a in &report.algorithms {
        println!("  {}:", a.algorithm.name());
        println!(
            "    {:<14}{:>10}{:>12}{:>12}",
            "mode", "qps", "p50 ms", "p99 ms"
        );
        for m in &a.modes {
            println!(
                "    {:<14}{:>10.1}{:>12.3}{:>12.3}",
                m.id, m.qps, m.p50_ms, m.p99_ms
            );
        }
    }
}
