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
#
# It also checks that EXPERIMENTS.md's generated §V carries the figures
# golden's SHA-256 in its stamp: a change that moves a figure without
# regenerating the document (scripts/paper_tables.sh) fails here.
#
#   scripts/golden.sh           # check (a step of verify.sh)
#   scripts/golden.sh --regen   # rewrite both tables
#
# A change that is not meant to alter simulated behaviour leaves both
# tables alone. One that moves a row regenerates them in the same commit,
# reruns scripts/paper_tables.sh and says why in CHANGES.md.
#
# No jq in the container: `--out` writes one JSON object per line with
# machine-fixed key order, so sed is enough.
set -euo pipefail
cd "$(dirname "$0")/.."

perfbench_golden=scripts/golden/perfbench_smoke.tsv
figures_golden=scripts/golden/figures_quick.txt
out=target/verify
mkdir -p "$out" scripts/golden
status=0

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

cargo run --release --offline --quiet -p whisper-bench --bin all_experiments -- --quick >"$out/figures_quick.txt"

if [ "${1:-}" = "--regen" ]; then
  cp "$out/perfbench_smoke.tsv" "$perfbench_golden"
  cp "$out/figures_quick.txt" "$figures_golden"
  echo "golden: wrote $perfbench_golden and $figures_golden"
else
  if diff -u "$perfbench_golden" "$out/perfbench_smoke.tsv"; then
    echo "perfbench golden: $(($(wc -l <"$perfbench_golden") - 1)) rows match $perfbench_golden"
  else
    echo "perfbench golden: simulated results differ from $perfbench_golden (see the diff above)" >&2
    status=1
  fi
  if diff -u "$figures_golden" "$out/figures_quick.txt"; then
    echo "figures golden: $(wc -l <"$figures_golden") lines match $figures_golden"
  else
    echo "figures golden: all_experiments --quick differs from $figures_golden (see the diff above)" >&2
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
