#!/usr/bin/env bash
# Writes this commit's point of the benchmark trajectory: runs
# `perfbench --all` (every workload untraced, then traced; ~3 min) and
# flattens its report to `"<workload>/<metric>": value` lines in
# BENCH_pr<N>.json — the format scripts/bench_trend.sh reads. End-to-end
# metrics come from the untraced run, per-layer ones from the traced run.
#
#   scripts/bench_snapshot.sh 16
#
# Host-time rows are one run on whatever machine this is (`host/nproc`
# says how many cores): a trend to look at, not evidence for a claim —
# that takes alternating pairs of two builds (perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

pr="${1:?usage: scripts/bench_snapshot.sh <PR number>}"
report=target/verify/perfbench_all.json
mkdir -p target/verify

cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --all --seed 7 --out "$report" >target/verify/perfbench_all.log ||
  { tail -n 40 target/verify/perfbench_all.log >&2; echo "perfbench --all failed" >&2; exit 1; }

# One JSON object per line, untraced before traced for each workload; the
# traced line repeats the end-to-end names (from its short untraced
# pre-run), which the first occurrence wins over.
{
  echo "host/nproc $(nproc)"
  awk '
    {
      match($0, /"workload": "[^"]+"/)
      workload = substr($0, RSTART + 13, RLENGTH - 14)
      rest = substr($0, index($0, "\"metrics\": {"))
      while (match(rest, /"[^"]+": \{"value": [^,]+,/)) {
        item = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        name = item; sub(/^"/, "", name); sub(/".*/, "", name)
        value = item; sub(/.*"value": /, "", value); sub(/,$/, "", value)
        if (!((workload, name) in seen)) print workload "/" name, value
        seen[workload, name] = 1
      }
    }' "$report"
} | sort | awk '
  { line[NR] = sprintf("  \"%s\": %s", $1, $2) }
  END {
    print "{"
    for (i = 1; i <= NR; i++) print line[i] (i < NR ? "," : "")
    print "}"
  }' >"BENCH_pr$pr.json"
echo "bench_snapshot: $(($(wc -l <"BENCH_pr$pr.json") - 2)) rows written to BENCH_pr$pr.json"
