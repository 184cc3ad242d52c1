#!/usr/bin/env bash
# Lines of product code per crate: what is left of every file under
# crates/*/src once it is cut at its `#[cfg(test)] mod` and blank lines
# and `//` comment lines (doc comments included) are dropped. A file
# named `tests.rs` is a module's `#[cfg(test)] mod tests;` kept beside it,
# and counts as tests. The number a simplifying PR's "net negative" is
# read from.
#
#   scripts/loc.sh           the working tree, then its five longest
#                            files under crates/*/src, every line counted
#                            (tests included): the size of a module
#   scripts/loc.sh <rev>     a `git archive` of <rev>, the working tree,
#                            and the change from the one to the other
#
# Counts lines, not statements: reformatting moves it, so compare two
# revisions formatted alike. `/* */` blocks (the crates have none) and
# `#[cfg(test)]` items outside the test module count as code.
set -euo pipefail
export LC_ALL=C  # one sort order for the glob and `join`
cd "$(dirname "$0")/.."

# `<crate> <lines>` per crate under $1, sorted by crate.
count() {
  for crate in "$1"/crates/*/; do
    find "$crate/src" -name '*.rs' ! -name tests.rs -print0 | sort -z | xargs -0 awk -v crate="$(basename "$crate")" '
      FNR == 1 { n += held; in_tests = 0; held = 0 }
      in_tests { next }
      # `#[cfg(test)]` counts (as the attribute of an item) unless the next
      # line opens the test module, where the file ends for this purpose.
      held { held = 0; if ($0 ~ /^[ \t]*(pub )?mod [a-z_]+/) { in_tests = 1; next } n++ }
      /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
      /^[ \t]*$/ || /^[ \t]*\/\// { next }
      { n++ }
      END { print crate, n + held }'
  done
}

if [ $# -eq 0 ]; then
  count "$PWD" | awk '{ printf "%-16s %6d\n", $1, $2; total += $2 } END { printf "%-16s %6d\n", "total", total }'
  echo
  echo "longest files (all lines):"
  find crates/*/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total"' | sort -k1,1nr -k2,2 | awk 'NR <= 5'
  exit 0
fi

sha=$(git rev-parse --verify --short=12 "$1^{commit}")
root=$PWD/target/verify/loc-$sha
trap 'rm -rf "$root"' EXIT
mkdir -p "$root"
git archive "$sha" crates | tar -x -C "$root"
# A crate on one side only counts 0 on the other.
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count "$root") <(count "$PWD") | awk -v rev="$1" '
  BEGIN { printf "%-16s %8s %8s %8s\n", "crate", rev, "tree", "delta" }
  { printf "%-16s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
  END { printf "%-16s %8d %8d %+8d\n", "total", a, b, b - a }'
