//! `spq-benchmark` — see `benchmark/README.md`. Run through
//! `benchmark/run.sh`, which builds the commit under test first.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Paths are relative to the checkout root, which is where run.sh
    // (and the driver) start the harness.
    let root = std::env::current_dir().unwrap_or_else(|_| ".".into());
    // Returning (not `process::exit`) lets every worker guard drop first.
    ExitCode::from(spq_benchmark::cli::main_with_args(&args, &root))
}
