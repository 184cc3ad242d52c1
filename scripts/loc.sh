#!/usr/bin/env bash
# Lines of product code per crate: what is left of every file under
# crates/*/src once it is cut at its `#[cfg(test)] mod` and blank lines
# and `//` comment lines (doc comments included) are dropped. The number
# a simplifying PR's "net negative" is read from.
#
#   scripts/loc.sh           the working tree
#   scripts/loc.sh <rev>     a `git archive` of <rev>
#
# Counts lines, not statements: reformatting moves it, so compare two
# revisions formatted alike. `/* */` blocks (the crates have none) and
# `#[cfg(test)]` items outside the test module count as code.
set -euo pipefail
cd "$(dirname "$0")/.."

root=$PWD
if [ $# -ge 1 ]; then
  sha=$(git rev-parse --verify --short=12 "$1^{commit}")
  root=$PWD/target/verify/loc-$sha
  trap 'rm -rf "$root"' EXIT
  mkdir -p "$root"
  git archive "$sha" crates | tar -x -C "$root"
fi

for crate in "$root"/crates/*/; do
  find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v crate="$(basename "$crate")" '
    FNR == 1 { n += held; in_tests = 0; held = 0 }
    in_tests { next }
    # `#[cfg(test)]` counts (as the attribute of an item) unless the next
    # line opens the test module, where the file ends for this purpose.
    held { held = 0; if ($0 ~ /^[ \t]*(pub )?mod [a-z_]+/) { in_tests = 1; next } n++ }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
    /^[ \t]*$/ || /^[ \t]*\/\// { next }
    { n++ }
    END { printf "%-16s %6d\n", crate, n + held; }'
done | awk '{ print; total += $2 } END { printf "%-16s %6d\n", "total", total }'
