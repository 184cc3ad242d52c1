#!/usr/bin/env bash
# Sampled profile of one perfbench workload, for hosts without perf:
#
#   scripts/prof/flatprof.sh <workload> [seed]     (TOP=40 for longer tables)
#   UNDER='host_windows|timed_window' scripts/prof/flatprof.sh gossip_scale
#
# Builds the SIGPROF sampler (sigprof.c) with cc, runs the perfbench binary
# under it as the driver would (untraced, 8 s of windows) and prints the
# top-N symbols by self and by inclusive time, with libc split out and
# attributed to its first caller outside libc (resolve.py, through nm).
# UNDER keeps only the samples beneath a frame matching the regex: the one
# above is the measured windows without the three set-ups. Writes only
# under target/prof/. Exits 0 with a notice when cc, nm or python3 is
# missing: a profile is an aid, never a gate.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workload="${1:?usage: flatprof.sh <workload> [seed]}"
seed="${2:-7}"

for tool in cc nm python3; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "flatprof: no $tool on this host; skipping the profile"
        exit 0
    fi
done

out="$root/target/prof"
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sigprof.so" "$here/sigprof.c"
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$root/perfbench/target}/release/perfbench"

samples="$out/$workload.$seed.samples"
(cd "$root" && FLATPROF_OUT="$samples" LD_PRELOAD="$out/sigprof.so" \
    "$bin" --workload "$workload" --seed "$seed" --seconds 8 --trace 0 >"$out/$workload.$seed.stdout")
tail -n 1 "$out/$workload.$seed.stdout" | cut -c1-200
python3 "$here/resolve.py" "$samples" "${TOP:-25}"
