#!/usr/bin/env bash
# The 1000-node / 4-shard group-lifecycle run (`group_lifecycle`, the
# population of tests/chaos.rs's acceptance test) over a range of seeds:
# does a deletion reach every live member?
#
#   scripts/lifecycle_sweep.sh <first> <last>
#
# Prints one row per seed: the seed, `deletion_prop_p95_s`, and `yes` when
# a live node still held a deleted group at the end of the run (`no`
# otherwise). The binary refuses to print its table in that case, so the
# row then shows `-` for the latency. A run that fails for any other
# reason prints `error` and its panic message. Exits non-zero if any seed
# ended with a deleted group held, or in an error.
#
# About 5 s a seed on two cores once built: not a step of verify.sh,
# whose acceptance matrix (seeds 7, 11, 13) runs the same scenario.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 2 ] || { echo "usage: scripts/lifecycle_sweep.sh <first> <last>" >&2; exit 2; }
first=$1 last=$2

cargo build --release --offline --quiet -p whisper-bench --bin group_lifecycle
bin=${CARGO_TARGET_DIR:-target}/release/group_lifecycle

failed=()
printf '%-6s %20s %6s\n' seed deletion_prop_p95_s held
for seed in $(seq "$first" "$last"); do
  if out=$("$bin" --seed "$seed" 2>&1); then
    p95=$(awk '$1 == "deletion_prop_p95_s" { print $2 }' <<<"$out")
    printf '%-6s %20s %6s\n' "$seed" "$p95" no
  elif grep -q 'deleted group resurrected' <<<"$out"; then
    printf '%-6s %20s %6s\n' "$seed" - yes
    failed+=("$seed")
  else
    printf '%-6s %20s %6s  %s\n' "$seed" - error "$(grep -m1 panicked -A1 <<<"$out" | tail -1)"
    failed+=("$seed")
  fi
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "lifecycle_sweep: ${#failed[@]} seed(s) failed: ${failed[*]}"
  exit 1
fi
echo "lifecycle_sweep: OK"
