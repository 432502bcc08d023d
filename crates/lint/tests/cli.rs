//! Integration tests driving the real `spq-lint` binary: the repo
//! itself must scan clean, an injected violation must fail the run, and
//! the bless workflow must behave as a decrease-only ratchet.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_spq-lint")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spq-lint runs")
}

/// Builds a throwaway mini-workspace under `CARGO_TARGET_TMPDIR`
/// containing one crate with `lib_src` as its only source, and a
/// blessed-empty baseline unless `baseline` says otherwise.
fn scratch_workspace(name: &str, lib_src: &str, baseline: Option<&str>) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("stale scratch removed");
    }
    let src = root.join("crates/x/src");
    fs::create_dir_all(&src).expect("scratch tree created");
    fs::write(src.join("lib.rs"), lib_src).expect("scratch source written");
    if let Some(text) = baseline {
        fs::write(root.join("lint-baseline.toml"), text).expect("baseline written");
    }
    root
}

#[test]
fn real_repo_is_clean_and_reports_json() {
    let root = repo_root();
    let json_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-report.json");
    let out = run(&[
        "--root",
        root.to_str().expect("utf8 root"),
        "--json",
        json_path.to_str().expect("utf8 json path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "spq-lint failed on the real repo:\n{stderr}"
    );
    assert!(stderr.contains("0 violations"), "summary: {stderr}");
    assert!(stderr.contains("ratchet ok"), "summary: {stderr}");

    let json = fs::read_to_string(&json_path).expect("json report written");
    assert!(json.contains("\"tool\": \"spq-lint\""));
    assert!(json.contains("\"violations\": []"));
    assert!(json.contains("\"status\": \"ok\""));
    // The policy is part of the artifact: a CI report records what it
    // was checked against.
    assert!(json.contains("\"ordered_output_modules\""));
    assert!(json.contains("\"crates/core/src/remote\""));
}

#[test]
fn injected_instant_now_fails_the_run() {
    // The acceptance gate: a wall-clock read in a sanctioned-module-free
    // file must exit 1 with a pointed diagnostic.
    let root = scratch_workspace(
        "inject-instant",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        Some("[panic-sites]\n"),
    );
    let out = run(&["--root", root.to_str().expect("utf8 scratch root")]);
    assert_eq!(out.status.code(), Some(1), "must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error[determinism/wall-clock]: crates/x/src/lib.rs:1"),
        "diagnostic: {stderr}"
    );
}

#[test]
fn injected_instant_in_test_code_passes() {
    let root = scratch_workspace(
        "inject-instant-test",
        "pub fn f() {}\n\
         #[cfg(test)]\n\
         mod tests {\n    pub fn t() -> std::time::Instant { std::time::Instant::now() }\n}\n",
        Some("[panic-sites]\n"),
    );
    let out = run(&["--root", root.to_str().expect("utf8 scratch root")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn ratchet_regression_fails_and_bless_refuses_to_raise() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    // Baseline says this file is clean: the unwrap is a regression.
    let root = scratch_workspace("ratchet-regress", src, Some("[panic-sites]\n"));
    let out = run(&["--root", root.to_str().expect("utf8 root")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[panic/ratchet]"), "{stderr}");
    assert!(stderr.contains("baseline allows 0"), "{stderr}");

    // --bless must refuse to launder the regression into the baseline.
    let out = run(&["--root", root.to_str().expect("utf8 root"), "--bless"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refuses to raise"), "{stderr}");
    let baseline =
        fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline still there");
    assert!(
        !baseline.contains("crates/x/src/lib.rs"),
        "unchanged: {baseline}"
    );
}

#[test]
fn improvement_is_stale_until_blessed_then_locks_in() {
    // Baseline says 2 sites; the code has 1: stale until blessed.
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let root = scratch_workspace(
        "ratchet-improve",
        src,
        Some("[panic-sites]\n\"crates/x/src/lib.rs\" = 2\n"),
    );
    let out = run(&["--root", root.to_str().expect("utf8 root")]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "improvement unblessed = stale baseline"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("baseline still says 2"), "{stderr}");

    let out = run(&["--root", root.to_str().expect("utf8 root"), "--bless"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline");
    assert!(
        baseline.contains("\"crates/x/src/lib.rs\" = 1"),
        "{baseline}"
    );

    // And the blessed tree now scans clean.
    let out = run(&["--root", root.to_str().expect("utf8 root")]);
    assert!(out.status.success());
}

#[test]
fn suppression_directive_is_honored_and_reported() {
    let root = scratch_workspace(
        "directive",
        "// spq-lint: allow(determinism/wall-clock) — scratch fixture exercising directives\n\
         pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        Some("[panic-sites]\n"),
    );
    let json_path = root.join("report.json");
    let out = run(&[
        "--root",
        root.to_str().expect("utf8 root"),
        "--json",
        json_path.to_str().expect("utf8 json"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = fs::read_to_string(&json_path).expect("report");
    assert!(json.contains("\"suppressed\": [\n"), "{json}");
    assert!(json.contains("determinism/wall-clock"), "{json}");
}

#[test]
fn lint_catalogue_is_listed() {
    let out = run(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "determinism/wall-clock",
        "determinism/unordered-iter",
        "panic/ratchet",
        "hygiene/allow-justification",
        "bench/stats-discipline",
    ] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}
