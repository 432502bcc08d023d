#!/usr/bin/env bash
# Prints, per workspace crate, the numbers a simplicity PR reports:
# non-test lines (every line of a src/*.rs file before its first
# `#[cfg(test)]`; the whole file when it has none, and none of it when
# it opens with `#![cfg(test)]`), code lines (the non-test lines that
# are neither blank nor `//` comments, so `///` and `//!` docs do not
# count), public items (the PR 13 grep, over the non-test lines),
# public struct fields (`pub name:` lines, over the same lines) and the
# crate's largest file by non-test lines. Report only — no threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-18s %14s %10s %13s %14s  %s\n' crate non-test-lines code-lines public-items public-fields largest-file
for dir in crates/*/; do
    find "${dir}src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_tests = 0 }
        /#!?\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++; per_file[FILENAME]++ }
        !/^[[:space:]]*(\/\/|$)/ { code++ }
        /^[[:space:]]*pub (fn|enum|struct|trait|const|type|mod) / { items++ }
        /^[[:space:]]*pub [a-z_][a-z0-9_]*:/ { fields++ }
        END {
            for (file in per_file) if (per_file[file] > per_file[largest]) largest = file
            printf "%-18s %14d %10d %13d %14d  %s %d\n", crate, lines, code, items, fields, largest, per_file[largest]
        }'
done
