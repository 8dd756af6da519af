#!/usr/bin/env bash
# Net line counts of a change, by class, for the Rust sources under
# crates/*/src and vendor/*/src.
#
#   scripts/net_lines.sh PARENT_REV [CHANGE_REV]
#
# CHANGE_REV defaults to HEAD. Every `.rs` file under those directories
# that differs between the two revisions is counted on both sides, in
# non-blank lines of three classes:
#
#   test     from the file's column-0 `#[cfg(test)]` to its end (each file
#            here has at most one, followed only by `mod tests`)
#   comment  `//` lines (doc comments included) before that
#   code     every other line before that
#
# Prints the per-file deltas (change minus parent) and their totals as a
# Markdown table. Comment and test lines are not a reduction in code.
#
# Needs git and awk.

set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
    echo "usage: $0 PARENT_REV [CHANGE_REV]" >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "${2:-HEAD}^{commit}")

# "code comment test" line counts of PATH at REV; 0 0 0 if it is absent.
counts() {
    git show "$1:$2" 2>/dev/null | awk '
        /^#\[cfg\(test\)\]/ { test = 1 }
        /^[[:space:]]*$/ { next }
        test { t++; next }
        /^[[:space:]]*\/\// { c++; next }
        { k++ }
        END { print k + 0, c + 0, t + 0 }
    '
}

signed() {
    if [ "$1" -gt 0 ]; then echo "+$1"; else echo "$1"; fi
}

echo "| file | code | comment | test |"
echo "|---|---|---|---|"
total_code=0 total_comment=0 total_test=0
while IFS= read -r path; do
    read -r pk pc pt < <(counts "$parent" "$path")
    read -r ck cc ct < <(counts "$change" "$path")
    dk=$((ck - pk)) dc=$((cc - pc)) dt=$((ct - pt))
    total_code=$((total_code + dk))
    total_comment=$((total_comment + dc))
    total_test=$((total_test + dt))
    echo "| \`$path\` | $(signed $dk) | $(signed $dc) | $(signed $dt) |"
done < <(git diff --name-only "$parent" "$change" -- crates vendor |
    grep -E '^(crates|vendor)/[^/]+/src/.*\.rs$' || true)
echo "| **total** | **$(signed $total_code)** | **$(signed $total_comment)** | **$(signed $total_test)** |"
