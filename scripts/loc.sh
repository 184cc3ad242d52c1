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
#                            and the change from the one to the other,
#                            per crate, then per file that changed
#
# Counts lines, not statements: reformatting moves it, so compare two
# revisions formatted alike. `/* */` blocks (the crates have none) and
# `#[cfg(test)]` items outside the test module count as code.
set -euo pipefail
export LC_ALL=C  # one sort order for the glob and `join`
cd "$(dirname "$0")/.."

# `<file> <lines>` per product file under $1 (`crates/<crate>/src/...`),
# sorted by path.
count_files() {
  (cd "$1" && find crates/*/src -name '*.rs' ! -name tests.rs -print0 | sort -z | xargs -0 awk '
      FNR == 1 { if (file != "") print file, n + held; file = FILENAME; n = 0; in_tests = 0; held = 0 }
      in_tests { next }
      # `#[cfg(test)]` counts (as the attribute of an item) unless the next
      # line opens the test module, where the file ends for this purpose.
      held { held = 0; if ($0 ~ /^[ \t]*(pub )?mod [a-z_]+/) { in_tests = 1; next } n++ }
      /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
      /^[ \t]*$/ || /^[ \t]*\/\// { next }
      { n++ }
      END { if (file != "") print file, n + held }')
}

# `<crate> <lines>` per crate under $1, sorted by crate.
count() {
  count_files "$1" | awk '{ split($1, path, "/"); n[path[2]] += $2 } END { for (c in n) print c, n[c] }' | sort
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
echo
# Each file whose count changed, so that a crate's delta can be traced; a
# file on one side only counts 0 on the other.
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count_files "$root") <(count_files "$PWD") | awk -v rev="$1" '
  BEGIN { printf "%-48s %8s %8s %8s\n", "file", rev, "tree", "delta" }
  $2 != $3 { printf "%-48s %8d %8d %+8d\n", $1, $2, $3, $3 - $2 }'
