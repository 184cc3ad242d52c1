#!/usr/bin/env bash
# The repository's two golden tables, compared bit for bit:
#
# * scripts/golden/perfbench_smoke.tsv — `perfbench --smoke` on seeds 7 and
#   11 (correctness checks on): every deterministic row (digests, RTT
#   percentiles, wire bytes, ok-share) per workload. Host-time rows are not
#   in the table.
# * scripts/golden/figures_quick.txt — the stdout of
#   `all_experiments --quick`: the paper's figures and tables at smoke
#   scale.
# * scripts/golden/examples.txt — the stdout of the five programs under
#   examples/, in release, one after the other, each under a `== name ==`
#   line.
#
# It also checks that EXPERIMENTS.md's generated §V carries the figures
# golden's SHA-256 in its stamp: a change that moves a figure without
# regenerating the document (scripts/paper_tables.sh) fails here.
#
#   scripts/golden.sh           # check (a step of verify.sh)
#   scripts/golden.sh --regen   # rewrite all three tables
#
# A change that is not meant to alter simulated behaviour leaves the
# tables alone. One that moves a row regenerates them in the same commit,
# reruns scripts/paper_tables.sh and says why in CHANGES.md. On a
# mismatch the check prints, before the raw diff, one line per seed and
# workload naming the perfbench columns that moved, each numeric one with
# its old and new value and the relative change, and one line per figure
# block with the number of its lines that moved (`fig6: 15 lines`): the
# move to declare.
#
# No jq in the container: `--out` writes one JSON object per line with
# machine-fixed key order, so sed is enough.
set -euo pipefail
cd "$(dirname "$0")/.."

perfbench_golden=scripts/golden/perfbench_smoke.tsv
figures_golden=scripts/golden/figures_quick.txt
examples_golden=scripts/golden/examples.txt
out=target/verify
mkdir -p "$out" scripts/golden
status=0

num='\{"value": ([^,]+),'

# One line per seed x workload row of $2 that differs from $1, naming the
# columns that moved; a numeric one as "name old → new (±x.xx %)".
moved_columns() {
  awk -F'\t' '
    function numeric(x) { return x ~ /^-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/ }
    NR == FNR { if (FNR == 1) for (i = 1; i <= NF; i++) name[i] = $i; else was[$1 FS $2] = $0; next }
    FNR == 1 { next }
    !(($1 FS $2) in was) { print "  seed " $1 " " $2 ": new row"; next }
    {
      split(was[$1 FS $2], old, FS)
      moved = ""
      sep = " "
      for (i = 3; i <= NF; i++) {
        if ($i == old[i]) continue
        column = name[i]
        if (numeric($i) && numeric(old[i])) {
          column = column " " old[i] " → " $i
          if (old[i] != 0) column = column sprintf(" (%+.2f %%)", 100 * ($i - old[i]) / old[i])
        }
        moved = moved sep column
        sep = ", "
      }
      if (moved != "") print "  seed " $1 " " $2 ":" moved
      delete was[$1 FS $2]
    }
    END { for (row in was) { split(row, k, FS); print "  seed " k[1] " " k[2] ": row gone" } }
  ' "$1" "$2"
}
# One line per block of the figures output that differs between $1 and
# $2: its name (`fig6`, `table2`, `ablation path length`) and how many of
# its lines moved — the larger of the lines gone from it and come into it.
moved_blocks() {
  { diff --unchanged-line-format= --old-line-format='-%dn
' --new-line-format='+%dn
' "$1" "$2" || true; } | awk -v old="$1" -v new="$2" '
    # A block opens with a bar of "=", its title and another bar.
    function name(title, part, n) {
      if (title ~ /^Figure [0-9]+/) return "fig" substr(title, 8, index(title ":", ":") - 8)
      if (title ~ /^Table [IVX]+/) {
        n = substr(title, 7, index(title ":", ":") - 7)
        return "table" (n == "I" ? 1 : n == "II" ? 2 : n == "III" ? 3 : n == "IV" ? 4 : n)
      }
      split(title, part, ": ")
      return tolower(part[1]) (part[2] == "" ? "" : " " part[2])
    }
    function blocks(file, of, line, n, bars, current) {
      current = "header"
      while ((getline line < file) > 0) {
        n++
        if (line ~ /^=+$/) bars++
        else if (bars % 2 == 1) current = name(line)
        of[n] = current
        if (!(current in order)) order[current] = ++blocks_seen
      }
      close(file)
    }
    BEGIN { blocks(old, in_old); blocks(new, in_new) }
    /^-/ { gone[in_old[substr($0, 2)]]++ }
    /^\+/ { came[in_new[substr($0, 2)]]++ }
    END {
      for (b in order) rank[order[b]] = b
      for (i = 1; i <= blocks_seen; i++) {
        b = rank[i]
        moved = gone[b] > came[b] ? gone[b] : came[b]
        if (moved > 0) print "  " b ": " moved " line" (moved == 1 ? "" : "s")
      }
    }
  '
}

{
  printf 'seed\tworkload\tsim_digest\tinputs_digest\trtt_p50_ms\trtt_p95_ms\twire_bytes_per_node_s\tops_ok_share\n'
  for seed in 7 11; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --smoke --seed "$seed" --out "$out/perfbench_smoke_$seed.json" >"$out/perfbench_smoke_$seed.log" ||
      { cat "$out/perfbench_smoke_$seed.log" >&2; echo "perfbench --smoke --seed $seed failed" >&2; exit 1; }
    sed -E "s/^\{\"workload\": \"([^\"]+)\", \"seed\": ([0-9]+),.*\"sim_digest\": \"([0-9a-f]+)\", \"inputs_digest\": \"([0-9a-f]+)\",.*\"rtt_p50_ms\": $num.*\"rtt_p95_ms\": $num.*\"wire_bytes_per_node_s\": $num.*\"ops_ok_share\": $num.*/\2\t\1\t\3\t\4\t\5\t\6\t\7\t\8/" \
      "$out/perfbench_smoke_$seed.json"
  done
} >"$out/perfbench_smoke.tsv"

cargo run --release --offline --quiet -p whisper-bench --bin all_experiments -- --quick >"$out/figures_quick.txt"

for example in quickstart private_chat private_index sorted_directory group_resilience; do
  echo "== $example =="
  cargo run --release --offline --quiet --example "$example"
done >"$out/examples.txt"

if [ "${1:-}" = "--regen" ]; then
  cp "$out/perfbench_smoke.tsv" "$perfbench_golden"
  cp "$out/figures_quick.txt" "$figures_golden"
  cp "$out/examples.txt" "$examples_golden"
  echo "golden: wrote $perfbench_golden, $figures_golden and $examples_golden"
else
  if cmp -s "$perfbench_golden" "$out/perfbench_smoke.tsv"; then
    echo "perfbench golden: $(($(wc -l <"$perfbench_golden") - 1)) rows match $perfbench_golden"
  else
    echo "perfbench golden: columns that moved, per seed and workload:"
    moved_columns "$perfbench_golden" "$out/perfbench_smoke.tsv"
    diff -u "$perfbench_golden" "$out/perfbench_smoke.tsv" || true
    echo "perfbench golden: simulated results differ from $perfbench_golden (see above)" >&2
    status=1
  fi
  if cmp -s "$figures_golden" "$out/figures_quick.txt"; then
    echo "figures golden: $(wc -l <"$figures_golden") lines match $figures_golden"
  else
    echo "figures golden: lines that moved, per block:"
    moved_blocks "$figures_golden" "$out/figures_quick.txt"
    diff -u "$figures_golden" "$out/figures_quick.txt" || true
    echo "figures golden: all_experiments --quick differs from $figures_golden (see above)" >&2
    status=1
  fi
  if diff -u "$examples_golden" "$out/examples.txt"; then
    echo "examples golden: $(wc -l <"$examples_golden") lines match $examples_golden"
  else
    echo "examples golden: the examples' stdout differs from $examples_golden (see the diff above)" >&2
    status=1
  fi
fi

stamp=$(sed -nE 's/^<!-- figures golden sha256: ([0-9a-f]{64}) .*/\1/p' EXPERIMENTS.md)
want=$(sha256sum "$figures_golden" | cut -d' ' -f1)
if [ "$stamp" = "$want" ]; then
  echo "EXPERIMENTS.md: §V is stamped with the figures golden ($want)"
else
  echo "EXPERIMENTS.md: §V is stamped '${stamp:-(none)}', the figures golden hashes to $want;" \
    "regenerate the document with scripts/paper_tables.sh" >&2
  [ "${1:-}" = "--regen" ] || status=1
fi
exit $status
