#!/usr/bin/env bash
# Runs `perfbench --smoke` on seeds 7 and 11 (correctness checks on) and
# compares every deterministic row — digests, RTT percentiles, wire bytes,
# ok-share, per workload — with scripts/golden/perfbench_smoke.tsv, bit
# for bit. Host-time rows are not in the table.
#
#   scripts/perfbench_golden.sh           # check (a step of verify.sh)
#   scripts/perfbench_golden.sh --regen   # rewrite the table
#
# A change that is not meant to alter simulated behaviour leaves the table
# alone. One that moves a row regenerates the table in the same commit and
# says why in CHANGES.md.
#
# No jq in the container: `--out` writes one JSON object per line with
# machine-fixed key order, so sed is enough.
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/golden/perfbench_smoke.tsv
out=target/verify
mkdir -p "$out"

num='\{"value": ([^,]+),'
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

if [ "${1:-}" = "--regen" ]; then
  mkdir -p "$(dirname "$golden")"
  cp "$out/perfbench_smoke.tsv" "$golden"
  echo "perfbench golden: wrote $golden"
elif diff -u "$golden" "$out/perfbench_smoke.tsv"; then
  echo "perfbench golden: $(($(wc -l <"$golden") - 1)) rows match $golden"
else
  echo "perfbench golden: simulated results differ from $golden (see the diff above)" >&2
  exit 1
fi
