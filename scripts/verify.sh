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

step "one length format (no hand-rolled u16/u32 length prefix under crates/*/src outside whisper-net/src/wire.rs)"
# Every length and count on the wire, in a key pair's image and in a
# journal record is written by WireSink::put_len and read by
# WireReader::take_len; a `len() as u16`/`as u32` turned into bytes, or a
# u16 read back from them, is a second format.
if grep -rnE --include='*.rs' 'len\(\) as u(16|32)\)?\.to_be_bytes|u16::from_be_bytes' crates/*/src \
    | grep -v '^crates/whisper-net/src/wire\.rs:'; then
  echo "verify: a hand-rolled length prefix (above): write it with whisper_net::wire" >&2
  exit 1
fi

step "one field list per layout (no hand-written decoder under crates/*/src outside whisper-net/src/wire.rs without its reason)"
# A message whose layout is a plain list of fields says it once, in
# whisper_net::wire_format!, which yields both its writer and its reader.
# A decoder written by hand carries, on the line above its impl, a
# `// Not a field list: <why>` comment.
if find crates/*/src -name '*.rs' ! -path crates/whisper-net/src/wire.rs -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { prev = "" }
        /^[ \t]*impl[ <].*WireDecode for / && prev !~ /^[ \t]*\/\/ Not a field list: ./ { print FILENAME ":" FNR ": " $0; bad = 1 }
        { prev = $0 }
        END { exit !bad }'; then
  echo "verify: a hand-written decoder (above): list its fields in whisper_net::wire_format!, or say why not" >&2
  exit 1
fi

step "no value computed to be thrown away (no \`let _ = <identifier>;\` under crates/*/src outside test modules)"
# Binding a variable to `_` silences the unused-variable lint and nothing
# else: the value was computed, or carried on the wire, for no reader.
# Test modules are `#[cfg(test)] mod <name> {` up to the `}` that closes
# it at column 0, or a `tests.rs` file of their own.
if find crates/*/src -name '*.rs' ! -name tests.rs -print0 | sort -z \
    | xargs -0 awk 'FNR == 1 { prev = ""; skip = 0 }
        prev ~ /^#\[cfg\(test\)\]/ && /^mod [A-Za-z_0-9]+ \{/ { skip = 1 }
        skip && /^\}/ { skip = 0 }
        !skip && /^[ \t]*let _ = [A-Za-z_][A-Za-z0-9_]*;/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        { prev = $0 }
        END { exit !bad }'; then
  echo "verify: a value bound to \`_\` (above): drop what computes it, or use it" >&2
  exit 1
fi

step "the group layer reaches the network only through the WCL (no NylonCore under crates/whisper-core/src/ppss)"
# The WCL owns the Nylon core it sends over; the PPSS holds a Wcl and
# asks it for everything below — sends, this node's entry, its identity.
# A NylonCore named in the PPSS is a second way down.
if grep -rn --include='*.rs' 'NylonCore' crates/whisper-core/src/ppss; then
  echo "verify: NylonCore in the PPSS (above): reach Nylon through the Wcl" >&2
  exit 1
fi

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

step "the paper's claims, quick tier (release: tests/paper_claims.rs at Params::quick(); ignored in the debug pass above)"
cargo test -q --release --offline --test paper_claims

step "determinism matrix (release: byte-identical traces across heap/wheel x 1/2/4 shards x threads on/off x pool on/off x one run/3000 runs, profiler on)"
cargo test -q --release --offline -p whisper-net --test determinism

step "chaos acceptance suite (384 + 1k-node/4-shard lifecycle and crash/restart, release; each test runs every seed of whisper_bench::chaos::ACCEPTANCE_SEEDS)"
cargo test -q --release --offline --test chaos -- --ignored

step "scale-out smoke (10k nodes/1 shard must stay <= 0.2 allocs/send; 100k and 1M nodes/4 shards must complete)"
cargo run -q --release --offline -p whisper-bench --bin scale_smoke

step "golden tables (perfbench --smoke on seeds 7 and 11, all_experiments --quick, the five examples; EXPERIMENTS.md stamp)"
# perfbench/ is its own package with its own target directory; it reaches
# the crates through their public items only, so this is also the check
# that a refactor kept every item the benchmark imports. The golden
# tables hold the benchmark's deterministic rows, the paper's figures at
# smoke scale and the examples' stdout: a simulated result that moved is
# a diff here, not a sentence in a PR description, and a figure that
# moved without scripts/paper_tables.sh regenerating EXPERIMENTS.md fails
# the stamp.
scripts/golden.sh

step "done"
# Not a gate: what a simplifying PR's "net negative" is read from
# (scripts/loc.sh <rev> gives the same count for any revision).
echo "loc: $(scripts/loc.sh | awk 'NF == 0 { exit } { printf "%s%s %s", sep, $1, $2; sep = ", " }')"
echo "verify: OK (total $((SECONDS - VERIFY_T0))s)"
