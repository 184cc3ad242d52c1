#!/usr/bin/env bash
# Tier-1 verification for the WHISPER reproduction.
#
# Hermetic by construction: every step runs with `--offline`, so it works
# from a clean checkout with an empty cargo registry and no network. The
# workspace has zero external dependencies (see crates/whisper-rand for
# the in-tree randomness/property-test substrate that makes this possible).
#
# Each step is wall-clock timed so regressions in verify latency are
# visible in the step-by-step log (`[t+...s]` prefixes).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

VERIFY_T0=$SECONDS
STEP_T0=$SECONDS
step() {
  local now=$SECONDS
  if [ "$now" -ne "$VERIFY_T0" ]; then
    echo "    [step took $((now - STEP_T0))s, t+$((now - VERIFY_T0))s total]"
  fi
  STEP_T0=$now
  echo "==> $1"
}

step "offline release build (lib, bins, tests, examples)"
cargo build --release --offline --workspace --all-targets

step "offline test suite (whole workspace)"
cargo test -q --offline --workspace

step "clippy clean (all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "rustdoc builds clean (no warnings; whisper-net denies missing docs)"
# whisper-net carries #![deny(missing_docs)], so an undocumented public
# item fails the build steps above; -D warnings catches the remaining
# rustdoc lint classes (broken intra-doc links etc.) workspace-wide.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

step "determinism matrix (release: byte-identical traces across heap/wheel x 1/2/4 shards x threads on/off x pool on/off x one run/3000 runs, profiler on)"
cargo test -q --release --offline -p whisper-net --test determinism

step "chaos acceptance suite (384 + 1k-node/4-shard, release, fixed seed matrix)"
for s in 7 11 13; do
  echo "    seed $s"
  WHISPER_CHAOS_SEED=$s cargo test -q --release --offline --test chaos -- --ignored
done

step "group-lifecycle bench (1k nodes / 4 shards; propagation + recovery metrics -> target/verify/BENCH_pr9.json)"
# A verification run must not rewrite a committed file: the rows go under
# target/, next to the committed BENCH_pr9.json they can be diffed against.
mkdir -p target/verify
WHISPER_BENCH_JSON=target/verify/BENCH_pr9.json cargo run -q --release --offline -p whisper-bench --bin group_lifecycle

step "scale-out smoke (10k nodes/1 shard must stay <= 0.2 allocs/send; 100k and 1M nodes/4 shards must complete)"
cargo run -q --release --offline -p whisper-bench --bin scale_smoke

step "the benchmark, smoke mode (perfbench/: five loaded workloads end to end, checks on, seeds 7 and 11 against scripts/golden/perfbench_smoke.tsv)"
# Its own package with its own target directory; it reaches the crates
# through their public items only, so this is also the check that a
# refactor kept every item the benchmark imports. The golden table holds
# the deterministic rows of both runs: a simulated result that moved is a
# diff here, not a sentence in a PR description.
scripts/perfbench_golden.sh

step "done"
# Not a gate: what a simplifying PR's "net negative" is read from
# (scripts/loc.sh <rev> gives the same count for any revision).
echo "loc: $(scripts/loc.sh | awk '{ printf "%s%s %s", sep, $1, $2; sep = ", " }')"
echo "verify: OK (total $((SECONDS - VERIFY_T0))s)"
