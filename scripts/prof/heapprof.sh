#!/usr/bin/env bash
# Heap profile by call site of one perfbench workload, beside the CPU one
# (flatprof.sh):
#
#   scripts/prof/heapprof.sh <workload> [seed]     (TOP=40 for longer tables)
#
# Builds the malloc interposer (heapprof.c) with cc, runs the unmodified
# perfbench binary under it as the driver would (untraced, 8 s of windows;
# a backtrace per allocation makes the run several times slower, which the
# time-boxed windows absorb) and prints what was live when the heap was
# at its largest: MB and blocks by the first frame outside libc and Rust's
# alloc::/core::/hashbrown:: plumbing, and by the chain of four such frames
# (resolve.py, through nm). The peak falls in one population — perfbench
# builds several, one after the other — usually at its checkpoint, where
# the sample series are longest. Writes only under target/prof/. Exits 0
# with a notice when cc, nm or python3 is missing: a profile is an aid,
# never a gate.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workload="${1:?usage: heapprof.sh <workload> [seed]}"
seed="${2:-7}"

for tool in cc nm python3; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "heapprof: no $tool on this host; skipping the profile"
        exit 0
    fi
done

out="$root/target/prof"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/heapprof.so" "$here/heapprof.c" -ldl -lpthread
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$root/perfbench/target}/release/perfbench"

sites="$out/$workload.$seed.heap"
(cd "$root" && HEAPPROF_OUT="$sites" LD_PRELOAD="$out/heapprof.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds 8 --trace 0 >"$out/$workload.$seed.heap.stdout")
tail -n 1 "$out/$workload.$seed.heap.stdout" | cut -c1-200
python3 "$here/resolve.py" "$sites" "${TOP:-25}"
