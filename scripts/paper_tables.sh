#!/usr/bin/env bash
# Regenerates the measured part of EXPERIMENTS.md from the programs that
# measure it, so no number there is typed by hand:
#
# * `all_experiments` at full scale, split per figure / table;
# * `chaos_matrix` and `group_lifecycle` at full scale;
# * the paper tier of tests/paper_claims.rs (its verdicts, and the
#   measured value of every claim that fails).
#
# Each output is pasted verbatim between its markers
#
#   <!-- BEGIN <block> -->
#   <!-- END <block> -->
#
# (blocks: fig5 fig6 table1 fig7 table2 fig8 fig9 ablation_path_length
# ablation_cb_size faults lifecycle claims), and the stamp line
#
#   <!-- figures golden sha256: <hex> (scripts/paper_tables.sh) -->
#
# is rewritten with the SHA-256 of scripts/golden/figures_quick.txt, which
# scripts/golden.sh checks. The script first confirms that the golden
# matches this tree's `all_experiments --quick`: run `scripts/golden.sh
# --regen` before it when a figure moved.
#
#   scripts/paper_tables.sh     # ≈ 4 minutes on two cores
#
# Writes EXPERIMENTS.md and files under target/verify/paper/.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/golden/figures_quick.txt
dir=target/verify/paper
rm -rf "$dir"
mkdir -p "$dir"

cargo build --release --offline --quiet -p whisper-bench --bins
bin=${CARGO_TARGET_DIR:-target}/release
"$bin/all_experiments" --quick >"$dir/quick.txt"
if ! cmp -s "$golden" "$dir/quick.txt"; then
  echo "paper_tables: all_experiments --quick differs from $golden; run scripts/golden.sh --regen first" >&2
  exit 1
fi

echo "paper_tables: running all_experiments, chaos_matrix and group_lifecycle (full scale)"
{
  "$bin/all_experiments"
  "$bin/chaos_matrix"
  "$bin/group_lifecycle"
} >"$dir/full.txt"

# One file per banner; the banner's title names the block.
awk -v dir="$dir" '
  function block(title) {
    if (title ~ /^Figure [0-9]:/) return "fig" substr(title, 8, 1)
    if (title ~ /^Table I:/) return "table1"
    if (title ~ /^Table II:/) return "table2"
    if (title ~ /^Chaos matrix:/) return "faults"
    if (title ~ /^Ablation: path length:/) return "ablation_path_length"
    if (title ~ /^Ablation: connection backlog size:/) return "ablation_cb_size"
    if (title ~ /^Lifecycle:/) return "lifecycle"
    print "paper_tables: no block for banner \"" title "\"" > "/dev/stderr"
    exit 1
  }
  { line[NR] = $0 }
  END {
    for (i = 1; i <= NR; i++) {
      if (line[i] ~ /^=+$/ && line[i + 2] ~ /^=+$/) name = block(line[i + 1])
      if (name == "") continue
      text[name] = text[name] line[i] "\n"
      if (line[i] != "") end[name] = length(text[name])
    }
    for (name in text) printf "%s", substr(text[name], 1, end[name]) > (dir "/" name ".txt")
  }
' "$dir/full.txt"

echo "paper_tables: running the paper tier of tests/paper_claims.rs"
cargo test --release --offline --test paper_claims -- --ignored --test-threads=1 >"$dir/claims.log" 2>&1 || true
grep -q '^test result:' "$dir/claims.log" || { cat "$dir/claims.log" >&2; exit 1; }
awk '
  /^test paper::/ { print; next }
  /^---- paper::/ { name = $2 }
  /panicked at/ { getline msg; missed = missed "  " name ": " msg "\n" }
  /^test result:/ { sub(/; finished in .*/, ""); result = $0 }
  END { print result; if (missed != "") printf "\nclaims the tree misses:\n%s", missed }
' "$dir/claims.log" >"$dir/claims.txt"

sha=$(sha256sum "$golden" | cut -d' ' -f1)
awk -v dir="$dir" -v sha="$sha" '
  /^<!-- BEGIN [a-z0-9_]+ -->$/ {
    print
    file = dir "/" $3 ".txt"
    print "```text"
    while ((status = (getline l < file)) > 0) print l
    if (status < 0) { print "paper_tables: no output for block " $3 > "/dev/stderr"; exit 1 }
    close(file)
    print "```"
    skip = 1
    next
  }
  /^<!-- END [a-z0-9_]+ -->$/ { skip = 0 }
  skip { next }
  /^<!-- figures golden sha256: / { print "<!-- figures golden sha256: " sha " (scripts/paper_tables.sh) -->"; next }
  { print }
' EXPERIMENTS.md >"$dir/EXPERIMENTS.md"
mv "$dir/EXPERIMENTS.md" EXPERIMENTS.md
echo "paper_tables: EXPERIMENTS.md regenerated, stamped $sha"
