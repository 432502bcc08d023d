//! The lint passes. Each pass is a token-sequence matcher over the
//! test-stripped token stream of one file; none of them parse Rust
//! beyond what [`crate::lexer`] already did.

use crate::config::{self, lint};
use crate::lexer::{LexOut, Token, TokenKind};
use std::collections::BTreeSet;

/// One finding, pointing at a workspace-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable lint id (see [`config::lint`]).
    pub lint: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

/// Everything the passes learned about one file.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Violations that survived suppression directives.
    pub violations: Vec<Violation>,
    /// Violations silenced by an `spq-lint: allow(...)` directive.
    pub suppressed: Vec<Violation>,
    /// Panic-family sites (`unwrap()` / `expect(` / `panic!` /
    /// `unreachable!` / `todo!`) in non-test code, for the ratchet.
    pub panic_sites: Vec<(u32, &'static str)>,
    /// Percentile-ish helper functions seen by the bench-stats pass
    /// (names), whether flagged or not — lets tests assert the pass
    /// actually looked at something.
    pub stats_helpers: Vec<String>,
}

/// Runs every pass over one file. `path` is workspace-relative with
/// `/` separators; `lexed` is the raw lex; the test-stripped stream is
/// derived here.
pub fn check_file(path: &str, lexed: &LexOut) -> FileFindings {
    let tokens = crate::lexer::strip_tests(&lexed.tokens);
    let mut raw: Vec<Violation> = Vec::new();

    wall_clock(path, &tokens, &mut raw);
    if config::path_in(path, config::ORDERED_OUTPUT_MODULES) {
        unordered_iter(path, &tokens, &mut raw);
    }
    allow_justification(path, &tokens, lexed, &mut raw);

    let mut out = FileFindings {
        panic_sites: panic_sites(&tokens),
        ..FileFindings::default()
    };
    if config::path_in(path, config::BENCH_WRITER_MODULES) {
        bench_stats(path, &tokens, &mut raw, &mut out.stats_helpers);
    }

    // One finding per (lint, line): `for x in m.keys()` trips both the
    // chain matcher and the for-loop matcher.
    let mut seen = BTreeSet::new();
    raw.retain(|v| seen.insert((v.lint, v.line)));

    // A directive silences findings of its lint on the directive's own
    // line and the line after it (comment-above-the-offense style).
    for v in raw {
        let silenced = lexed
            .directives
            .iter()
            .any(|(dl, name)| name == v.lint && (v.line == *dl || v.line == dl + 1));
        if silenced {
            out.suppressed.push(v);
        } else {
            out.violations.push(v);
        }
    }
    out
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens.get(i).and_then(|t| t.kind.ident())
}

fn punct_at(tokens: &[Token], i: usize, b: u8) -> bool {
    tokens.get(i).is_some_and(|t| t.kind.is_punct(b))
}

/// `determinism/wall-clock`: `Instant::now` / `SystemTime::now` /
/// `thread_rng` / `random(` outside the sanctioned modules.
fn wall_clock(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    if config::sanction_for(path).is_some() {
        return;
    }
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        let flagged = match name {
            "Instant" | "SystemTime" => {
                punct_at(tokens, i + 1, b':')
                    && punct_at(tokens, i + 2, b':')
                    && ident_at(tokens, i + 3) == Some("now")
            }
            "thread_rng" => true,
            "random" => punct_at(tokens, i + 1, b'('),
            _ => false,
        };
        if flagged {
            let what = match name {
                "Instant" => "Instant::now",
                "SystemTime" => "SystemTime::now",
                "thread_rng" => "thread_rng",
                _ => "random()",
            };
            out.push(Violation {
                lint: lint::WALL_CLOCK,
                file: path.to_string(),
                line: tokens[i].line,
                message: format!(
                    "{what} in a module that is not sanctioned for wall-clock/ambient \
                     randomness"
                ),
                help: "results must be reproducible: thread ticks and seeded StdRng only. \
                       If this module genuinely needs the wall clock for metrics, add it to \
                       WALL_CLOCK_SANCTIONED in crates/lint/src/config.rs with a rationale"
                    .to_string(),
            });
        }
    }
}

/// Methods whose call on a hash collection iterates it in arbitrary
/// order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// `determinism/unordered-iter`: iteration over a `HashMap`/`HashSet`
/// in a module that produces serialized or wire output.
///
/// Pass A collects names declared with a hash-collection type (`name:
/// ... HashMap<...>` fields/params/lets, and `name = HashMap::...`
/// bindings); pass B flags iterator-method calls whose receiver chain
/// touches one of those names, and `for ... in` expressions mentioning
/// one.
fn unordered_iter(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    let hash_names = collect_hash_names(tokens);
    if hash_names.is_empty() {
        return;
    }
    let mut flag = |line: u32, name: &str, how: &str| {
        out.push(Violation {
            lint: lint::UNORDERED_ITER,
            file: path.to_string(),
            line,
            message: format!("{how} `{name}`, a HashMap/HashSet, in an ordered-output module"),
            help: "this module feeds serialized output; hash iteration order would make \
                   it nondeterministic. Use BTreeMap/BTreeSet, or collect and sort before \
                   emitting"
                .to_string(),
        });
    };

    for i in 0..tokens.len() {
        // `.iter()`-family calls: walk the receiver chain backwards.
        if let Some(m) = ident_at(tokens, i) {
            if ITER_METHODS.contains(&m) && punct_at(tokens, i + 1, b'(') && i >= 2 {
                if let Some(base) = chain_hits(tokens, i, &hash_names) {
                    flag(tokens[i].line, &base, &format!("calling `.{m}()` on"));
                }
            }
        }
        // `for pat in expr {`: any hash-typed name in the expression.
        if ident_at(tokens, i) == Some("for") {
            if let Some(v) = for_loop_hits(tokens, i, &hash_names) {
                flag(v.0, &v.1, "iterating over");
            }
        }
    }
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type. Two
/// shapes: `name : <type tokens> HashMap` (fields, params, typed lets)
/// and `name = HashMap ::` (inferred lets).
fn collect_hash_names(tokens: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..tokens.len() {
        match ident_at(tokens, i) {
            Some("HashMap") | Some("HashSet") => {}
            _ => continue,
        }
        // `name = HashMap::...`
        if i >= 2 && punct_at(tokens, i - 1, b'=') {
            if let Some(name) = ident_at(tokens, i - 2) {
                names.insert(name.to_string());
                continue;
            }
        }
        // Walk back over type tokens (`&`, `<`, path idents, `:`) to
        // the declared name: the first `X :` where the `:` is single
        // (not part of `::`). Stop at anything that can't be inside a
        // type annotation.
        let mut j = i;
        let mut budget = 12usize; // types here are shallow; bail on monsters
        while j > 0 && budget > 0 {
            j -= 1;
            budget -= 1;
            match &tokens[j].kind {
                TokenKind::Punct(b'&') | TokenKind::Punct(b'<') | TokenKind::Lifetime => {}
                TokenKind::Punct(b':') => {
                    let double =
                        (j > 0 && punct_at(tokens, j - 1, b':')) || punct_at(tokens, j + 1, b':');
                    if double {
                        continue; // path separator, keep walking
                    }
                    if let Some(name) = ident_at(tokens, j.wrapping_sub(1)) {
                        names.insert(name.to_string());
                    }
                    break;
                }
                TokenKind::Ident(_) => {}
                _ => break,
            }
        }
    }
    names
}

/// From an iterator-method token at `i`, walks the `a.b().c` receiver
/// chain backwards; returns the first chain identifier that is a known
/// hash-collection name.
fn chain_hits(tokens: &[Token], i: usize, names: &BTreeSet<String>) -> Option<String> {
    if !punct_at(tokens, i - 1, b'.') {
        return None;
    }
    let mut j = i - 1; // at the '.'
    loop {
        if j == 0 {
            return None;
        }
        j -= 1; // token before the '.'
                // `...)`: skip back over the argument list to its '(' and the
                // method name before it.
        if punct_at(tokens, j, b')') {
            let mut depth = 0usize;
            loop {
                if tokens[j].kind.is_punct(b')') {
                    depth += 1;
                } else if tokens[j].kind.is_punct(b'(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j == 0 {
                return None;
            }
            j -= 1; // the method name (or expression head) before '('
        }
        if punct_at(tokens, j, b'?') {
            continue;
        }
        let name = ident_at(tokens, j)?;
        if names.contains(name) {
            return Some(name.to_string());
        }
        // Continue only while the chain keeps dotting leftwards.
        if j == 0 || !punct_at(tokens, j - 1, b'.') {
            return None;
        }
        j -= 1;
    }
}

/// For a `for` keyword at `i`, scans `for <pat> in <expr> {` and
/// returns `(line, name)` if the expression mentions a hash name.
fn for_loop_hits(tokens: &[Token], i: usize, names: &BTreeSet<String>) -> Option<(u32, String)> {
    // Find the `in` at bracket depth 0 (patterns may contain tuples).
    let mut depth = 0i32;
    let mut j = i + 1;
    let in_pos = loop {
        let t = tokens.get(j)?;
        match &t.kind {
            TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => depth += 1,
            TokenKind::Punct(b')') | TokenKind::Punct(b']') => depth -= 1,
            TokenKind::Punct(b'{') => return None, // `for` in a type/macro? bail
            TokenKind::Ident(s) if s == "in" && depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    // Expression runs to the body '{' at depth 0.
    let mut depth = 0i32;
    let mut j = in_pos + 1;
    loop {
        let t = tokens.get(j)?;
        match &t.kind {
            TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => depth += 1,
            TokenKind::Punct(b')') | TokenKind::Punct(b']') => depth -= 1,
            TokenKind::Punct(b'{') if depth == 0 => return None,
            TokenKind::Ident(s) if names.contains(s.as_str()) => {
                return Some((t.line, s.clone()));
            }
            _ => {}
        }
        j += 1;
    }
}

/// `hygiene/allow-justification`: every `#[allow(...)]` /
/// `#![allow(...)]` in library code needs a comment on its own line or
/// the line above.
fn allow_justification(path: &str, tokens: &[Token], lexed: &LexOut, out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if !punct_at(tokens, i, b'#') {
            continue;
        }
        let mut j = i + 1;
        if punct_at(tokens, j, b'!') {
            j += 1;
        }
        if !punct_at(tokens, j, b'[') || ident_at(tokens, j + 1) != Some("allow") {
            continue;
        }
        let line = tokens[i].line;
        let justified =
            lexed.comment_lines.contains(&line) || lexed.comment_lines.contains(&(line - 1));
        if !justified {
            out.push(Violation {
                lint: lint::ALLOW_JUSTIFICATION,
                file: path.to_string(),
                line,
                message: "#[allow(...)] without a justification comment".to_string(),
                help: "say why the suppression is sound, on the same line or the line \
                       above — unexplained allows rot into permanent blind spots"
                    .to_string(),
            });
        }
    }
}

/// `panic/ratchet`: every `.unwrap()` / `.expect(` / `panic!` /
/// `unreachable!` / `todo!` site in non-test code. `unwrap`/`expect`
/// count only in method position (a `.` right before the name), so a
/// free function that happens to be called `expect` is not a site.
fn panic_sites(tokens: &[Token]) -> Vec<(u32, &'static str)> {
    let mut sites = Vec::new();
    for i in 0..tokens.len() {
        let Some(name) = ident_at(tokens, i) else {
            continue;
        };
        let method = i > 0 && punct_at(tokens, i - 1, b'.');
        let hit: Option<&'static str> = match name {
            "unwrap"
                if method && punct_at(tokens, i + 1, b'(') && punct_at(tokens, i + 2, b')') =>
            {
                Some("unwrap()")
            }
            "expect" if method && punct_at(tokens, i + 1, b'(') => Some("expect("),
            "panic" if punct_at(tokens, i + 1, b'!') => Some("panic!"),
            "unreachable" if punct_at(tokens, i + 1, b'!') => Some("unreachable!"),
            "todo" if punct_at(tokens, i + 1, b'!') => Some("todo!"),
            _ => None,
        };
        if let Some(what) = hit {
            sites.push((tokens[i].line, what));
        }
    }
    sites
}

/// `bench/stats-discipline`: a `fn` whose name smells like rank math
/// (`percentile`/`median`/`quantile`) defined in a `BENCH_*` writer
/// module must route through `criterion::stats::Sample` — its body has
/// to mention `Sample`.
fn bench_stats(path: &str, tokens: &[Token], out: &mut Vec<Violation>, helpers: &mut Vec<String>) {
    for i in 0..tokens.len() {
        if ident_at(tokens, i) != Some("fn") {
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else {
            continue;
        };
        let lower = name.to_ascii_lowercase();
        let statsy = ["percentile", "median", "quantile"]
            .iter()
            .any(|s| lower.contains(s));
        if !statsy {
            continue;
        }
        helpers.push(name.to_string());
        // Body: first '{' after the signature, then its balanced extent.
        let mut j = i + 2;
        while j < tokens.len() && !tokens[j].kind.is_punct(b'{') {
            j += 1;
        }
        let mut depth = 0usize;
        let mut routed = false;
        while j < tokens.len() {
            match &tokens[j].kind {
                TokenKind::Punct(b'{') => depth += 1,
                TokenKind::Punct(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) if s == "Sample" => routed = true,
                _ => {}
            }
            j += 1;
        }
        if !routed {
            out.push(Violation {
                lint: lint::BENCH_STATS,
                file: path.to_string(),
                line: tokens[i].line,
                message: format!(
                    "`fn {name}` hand-rolls percentile/median math in a BENCH_* writer \
                     module"
                ),
                help: "route through criterion::stats::Sample (sorted, \
                       linear-interpolation percentiles) so every report computes rank \
                       statistics the same way"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> FileFindings {
        check_file(path, &lex(src.as_bytes()))
    }

    fn lints_of(f: &FileFindings) -> Vec<&'static str> {
        f.violations.iter().map(|v| v.lint).collect()
    }

    // ---- determinism/wall-clock ----

    #[test]
    fn instant_now_flagged_outside_sanctioned_modules() {
        let f = run(
            "crates/core/src/serve.rs",
            "fn f() { let t = std::time::Instant::now(); }",
        );
        assert_eq!(lints_of(&f), vec![lint::WALL_CLOCK]);
        assert_eq!(f.violations[0].line, 1);
    }

    #[test]
    fn wall_clock_ok_in_sanctioned_module_and_in_tests() {
        let f = run(
            "crates/bench/src/matrix/runner.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert!(f.violations.is_empty());
        let f = run(
            "crates/core/src/serve.rs",
            "#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }",
        );
        assert!(f.violations.is_empty());
    }

    #[test]
    fn thread_rng_and_random_flagged_but_named_vars_pass() {
        let f = run("src/lib.rs", "fn f() { let x = rand::thread_rng(); }");
        assert_eq!(lints_of(&f), vec![lint::WALL_CLOCK]);
        let f = run("src/lib.rs", "fn f() { let y = random(); }");
        assert_eq!(lints_of(&f), vec![lint::WALL_CLOCK]);
        // `random` as a plain binding is not a call.
        let f = run("src/lib.rs", "fn f(random: u32) -> u32 { random + 1 }");
        assert!(f.violations.is_empty());
    }

    #[test]
    fn wall_clock_in_comment_or_string_passes() {
        let f = run(
            "src/lib.rs",
            "// Instant::now() is banned here\nfn f() { let s = \"Instant::now()\"; }",
        );
        assert!(f.violations.is_empty());
    }

    #[test]
    fn directive_suppresses_and_is_counted() {
        let f = run(
            "src/lib.rs",
            "// spq-lint: allow(determinism/wall-clock) — example carve-out\n\
             fn f() { let t = Instant::now(); }",
        );
        assert!(f.violations.is_empty());
        assert_eq!(f.suppressed.len(), 1);
    }

    // ---- determinism/unordered-iter ----

    #[test]
    fn hash_iteration_flagged_in_ordered_module() {
        let src = "struct S { shards: Mutex<HashMap<u32, Shard>> }\n\
                   impl S { fn status(&self) -> Vec<u32> { \
                   self.shards.lock().keys().copied().collect() } }";
        let f = run("crates/core/src/remote/host.rs", src);
        assert_eq!(lints_of(&f), vec![lint::UNORDERED_ITER]);
        assert!(f.violations[0].message.contains("shards"));
    }

    #[test]
    fn hash_for_loop_flagged_in_ordered_module() {
        let src = "fn f(seen: &HashSet<u32>) { for s in seen { emit(s); } }";
        let f = run("crates/core/src/sharded.rs", src);
        assert_eq!(lints_of(&f), vec![lint::UNORDERED_ITER]);
    }

    #[test]
    fn hash_lookup_passes_and_other_modules_exempt() {
        // Point lookups don't iterate: no violation.
        let src = "fn g(m: &HashMap<u32, u32>) -> Option<&u32> { m.get(&1) }";
        assert!(run("crates/core/src/remote/engine.rs", src)
            .violations
            .is_empty());
        // Same iteration outside the ordered-output list: no violation.
        let src = "fn f(seen: &HashSet<u32>) { for s in seen { emit(s); } }";
        assert!(run("crates/core/src/engine.rs", src).violations.is_empty());
    }

    #[test]
    fn btree_iteration_passes_in_ordered_module() {
        let src = "fn f(m: &BTreeMap<u32, u32>) { for (k, v) in m.iter() { emit(k, v); } }";
        assert!(run("crates/core/src/remote/engine.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn inferred_let_binding_is_tracked() {
        let src = "fn f() { let seen = HashMap::with_capacity(4); for x in seen.keys() {} }";
        let f = run("crates/core/src/remote/engine.rs", src);
        assert_eq!(lints_of(&f), vec![lint::UNORDERED_ITER]);
    }

    // ---- hygiene/allow-justification ----

    #[test]
    fn bare_allow_flagged_justified_allow_passes() {
        let f = run("src/lib.rs", "#[allow(dead_code)]\nfn f() {}");
        assert_eq!(lints_of(&f), vec![lint::ALLOW_JUSTIFICATION]);
        let f = run(
            "src/lib.rs",
            "// the facade re-exports this for doc examples only\n#[allow(dead_code)]\nfn f() {}",
        );
        assert!(f.violations.is_empty());
        let f = run(
            "src/lib.rs",
            "#[allow(dead_code)] // doc-example hook\nfn f() {}",
        );
        assert!(f.violations.is_empty());
    }

    #[test]
    fn allow_in_test_mod_is_ignored() {
        let f = run(
            "src/lib.rs",
            "#[cfg(test)]\nmod tests { #[allow(dead_code)] fn f() {} }",
        );
        assert!(f.violations.is_empty());
    }

    // ---- panic/ratchet ----

    #[test]
    fn panic_sites_counted_outside_tests_only() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n\
                   fn h() { panic!(\"boom\"); }\n\
                   #[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }";
        let f = run("src/lib.rs", src);
        assert_eq!(
            f.panic_sites,
            vec![(1, "unwrap()"), (2, "expect("), (3, "panic!")]
        );
    }

    #[test]
    fn unwrap_or_and_doc_comments_not_counted() {
        let src = "/// call `x.unwrap()` at your peril\n\
                   fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
                   fn g() { std::panic::catch_unwind(|| {}).ok(); }";
        let f = run("src/lib.rs", src);
        assert!(f.panic_sites.is_empty());
    }

    #[test]
    fn free_fn_named_expect_is_not_a_panic_site() {
        let src = "fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> bool { bytes[*pos] == c }\n\
                   fn f(b: &[u8]) -> bool { let mut p = 0; expect(b, &mut p, b'x') }\n\
                   fn g(x: Option<u32>) -> u32 { x.expect(\"m\") }\n\
                   fn h(x: Option<u32>) -> u32 { unwrap() + x.unwrap() }";
        let f = run("src/lib.rs", src);
        assert_eq!(f.panic_sites, vec![(3, "expect("), (4, "unwrap()")]);
    }

    // ---- bench/stats-discipline ----

    #[test]
    fn hand_rolled_percentile_flagged_sample_routed_passes() {
        let bad = "fn percentile_ms(mut v: Vec<f64>, p: f64) -> f64 {\n\
                   v.sort_by(f64::total_cmp); v[(p * v.len() as f64) as usize] }";
        let f = run("crates/bench/src/figures.rs", bad);
        assert_eq!(lints_of(&f), vec![lint::BENCH_STATS]);
        assert_eq!(f.stats_helpers, vec!["percentile_ms"]);

        let good = "fn median_ms(v: Vec<f64>) -> f64 {\n\
                    criterion::stats::Sample::new(&v).percentile(0.50) }";
        let f = run("crates/bench/src/figures.rs", good);
        assert!(f.violations.is_empty());
        assert_eq!(f.stats_helpers, vec!["median_ms"]);
    }

    #[test]
    fn percentile_fn_outside_writer_modules_ignored() {
        let bad = "fn percentile(v: &[f64], p: f64) -> f64 { v[0] }";
        let f = run("crates/core/src/topk.rs", bad);
        assert!(f.violations.is_empty());
        assert!(f.stats_helpers.is_empty());
    }
}
