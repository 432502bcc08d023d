#!/usr/bin/env bash
# Prints, per workspace crate, the two numbers a simplicity PR reports:
# non-test lines (every line of a src/*.rs file before its first
# `#[cfg(test)]`; the whole file when it has none) and public items (the
# PR 13 grep, over the same lines). Report only — no threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-18s %14s %13s\n' crate non-test-lines public-items
for dir in crates/*/; do
    find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        /^[[:space:]]*pub (fn|enum|struct|trait|const|type|mod) / { items++ }
        END { printf "%-18s %14d %13d\n", crate, lines, items }'
done
