#!/usr/bin/env bash
# Prints how every benchmark metric moved across the BENCH_pr*.json
# snapshots, in PR order. Each snapshot is flat `"metric": value` JSON:
# up to PR 12 the rows `whisper_rand::bench` merged into
# WHISPER_BENCH_JSON, from PR 16 on the `<workload>/<metric>` rows that
# scripts/bench_snapshot.sh flattens out of a `perfbench --all` report.
#
# For every metric that appears in at least two snapshots the script
# prints the first and last recorded values, the overall delta, and the
# file-by-file trail. Pass a substring to filter metrics:
#
#   scripts/bench_trend.sh                 # every metric
#   scripts/bench_trend.sh nodes_per_sec   # just the throughput rows
#
# No jq in the container; the files are machine-written one-pair-per-line
# JSON, so awk is sufficient and keeps the script hermetic.
set -euo pipefail
cd "$(dirname "$0")/.."

filter="${1:-}"

files=$(ls BENCH_pr*.json 2>/dev/null | sort -t r -k 2 -n)
if [ -z "$files" ]; then
  echo "bench_trend: no BENCH_pr*.json snapshots found" >&2
  exit 1
fi

# shellcheck disable=SC2086  # word-splitting of $files is intentional
awk -v filter="$filter" '
  FNR == 1 { nfiles++; fname[nfiles] = FILENAME }
  # Lines look like:   "scaling/pss_n100000_s1_nodes_per_sec": 380427.8,
  /^[[:space:]]*"[^"]+":[[:space:]]*-?[0-9]/ {
    line = $0
    sub(/^[[:space:]]*"/, "", line)
    key = line
    sub(/".*/, "", key)
    if (filter != "" && index(key, filter) == 0) next
    val = line
    sub(/^[^:]*":[[:space:]]*/, "", val)
    sub(/,[[:space:]]*$/, "", val)
    if (!(key in first)) { order[++nkeys] = key; first[key] = nfiles }
    seen[key, nfiles] = val
    last[key] = nfiles
  }
  END {
    if (nkeys == 0) { print "bench_trend: no metrics matched"; exit 0 }
    for (i = 1; i <= nkeys; i++) {
      key = order[i]
      if (first[key] == last[key]) continue  # single snapshot: no trend
      a = seen[key, first[key]]; b = seen[key, last[key]]
      pct = (a + 0 != 0) ? sprintf("%+.1f%%", 100 * (b - a) / a) : "n/a"
      printf "%-55s %14s -> %14s  (%s)\n", key, a, b, pct
      trail = ""
      for (f = 1; f <= nfiles; f++)
        if ((key, f) in seen)
          trail = trail sprintf("  %s=%s", substr(fname[f], 7, length(fname[f]) - 11), seen[key, f])
      printf "    %s\n", trail
    }
  }
' $files
