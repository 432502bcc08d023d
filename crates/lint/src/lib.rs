//! `spq-lint`: the workspace invariant checker.
//!
//! Every PR in this repo leans on one standing invariant: query results
//! are byte-identical across execution modes, backends, worker counts
//! and fault schedules. That only holds because the codebase bans wall
//! clocks (membership is tick-driven), ambient randomness (seeded
//! `StdRng` everywhere) and unordered iteration anywhere that feeds
//! serialized output. Tests catch violations after the fact; this crate
//! catches them at the source level, as named lints:
//!
//! * `determinism/wall-clock` — no `Instant::now` / `SystemTime::now` /
//!   `thread_rng` / `random()` outside the sanctioned modules in
//!   [`config::WALL_CLOCK_SANCTIONED`].
//! * `determinism/unordered-iter` — no `HashMap`/`HashSet` iteration in
//!   the ordered-output modules of [`config::ORDERED_OUTPUT_MODULES`].
//! * `panic/ratchet` — `unwrap()`/`expect(`/`panic!`/`unreachable!`/
//!   `todo!` counts per file, exact-matched against the committed
//!   `lint-baseline.toml` and only ever allowed to go down.
//! * `hygiene/allow-justification` — every `#[allow(...)]` carries a
//!   justification comment.
//! * `bench/stats-discipline` — percentile helpers in `BENCH_*` writer
//!   modules route through `criterion::stats::Sample`.
//!
//! The scanner is a token-level lexer ([`lexer`]) that skips comments,
//! string/char/raw-string literals and `#[cfg(test)]`/`mod tests`
//! regions, so test code may unwrap freely and doc prose never trips a
//! lint. See docs/ARCHITECTURE.md, "Static analysis & invariants".

pub mod baseline;
pub mod config;
pub mod lexer;
pub mod lints;
pub mod report;

pub use report::RunOutcome;

use std::path::{Path, PathBuf};

/// Collects the workspace's lintable sources under `root`: `src/` and
/// every `crates/*/src/`, recursively — `vendor/` and integration
/// `tests/` directories are outside these roots by construction. The
/// list is sorted, so a run's output is deterministic.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let src = root.join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("cannot read {}: {e}", crates.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
            .path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated display path for `file` under
/// `root` (falls back to the absolute path if `file` is elsewhere).
pub fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Scans the workspace under `root` and runs every lint. Ratchet
/// comparison is left to the caller (the CLI), which owns the baseline
/// file.
pub fn run_workspace(root: &Path) -> Result<RunOutcome, String> {
    let files = workspace_files(root)?;
    if files.is_empty() {
        return Err(format!(
            "no Rust sources under {} — is this the workspace root?",
            root.display()
        ));
    }
    let mut outcome = RunOutcome::default();
    for file in &files {
        let rel = relative_path(root, file);
        let bytes =
            std::fs::read(file).map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let lexed = lexer::lex(&bytes);
        let findings = lints::check_file(&rel, &lexed);
        outcome.violations.extend(findings.violations);
        outcome.suppressed.extend(findings.suppressed);
        outcome
            .panic_counts
            .insert(rel.clone(), findings.panic_sites.len() as u64);
        outcome
            .stats_helpers
            .extend(findings.stats_helpers.iter().map(|h| format!("{rel}::{h}")));
        outcome.files.push(rel);
    }
    let sort_key = |v: &lints::Violation| (v.file.clone(), v.line, v.lint);
    outcome.violations.sort_by_key(sort_key);
    outcome.suppressed.sort_by_key(sort_key);
    outcome.stats_helpers.sort();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/lint → workspace root.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap()
    }

    #[test]
    fn workspace_walk_finds_this_crate_and_skips_vendor() {
        let files = workspace_files(&repo_root()).unwrap();
        let rels: Vec<String> = files
            .iter()
            .map(|f| relative_path(&repo_root(), f))
            .collect();
        assert!(rels.contains(&"crates/lint/src/lib.rs".to_string()));
        assert!(rels.contains(&"crates/core/src/serve.rs".to_string()));
        assert!(rels.contains(&"src/lib.rs".to_string()));
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")));
        assert!(!rels.iter().any(|r| r.starts_with("tests/")));
        // Sorted ⇒ deterministic report order.
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
    }

    /// The tentpole's standing gate, as a unit test: the real tree is
    /// lint-clean. (The CLI integration test drives the binary; this
    /// one pins the library API.)
    #[test]
    fn real_workspace_has_no_violations() {
        let outcome = run_workspace(&repo_root()).unwrap();
        assert!(
            outcome.violations.is_empty(),
            "violations: {:#?}",
            outcome.violations
        );
    }

    /// The ordered-output modules ship with zero suppression
    /// directives — the determinism story has no carve-outs there.
    #[test]
    fn ordered_output_modules_carry_no_suppressions() {
        let outcome = run_workspace(&repo_root()).unwrap();
        let in_ordered: Vec<_> = outcome
            .suppressed
            .iter()
            .filter(|v| config::path_in(&v.file, config::ORDERED_OUTPUT_MODULES))
            .collect();
        assert!(in_ordered.is_empty(), "suppressions: {in_ordered:#?}");
    }
}
