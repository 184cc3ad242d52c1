#!/usr/bin/env bash
# The paired-run rule as a command: does the working tree regress, or
# improve, any end-to-end metric of BENCHMARK.json against <parent-rev>?
#
#   scripts/bench_gate.sh <parent-rev> [--pairs N=10] [--seed S=7]
#                         [--behaviour-changes] [workload...]
#
# Checks <parent-rev> out under target/verify/bench_gate/, builds both
# perfbench binaries once (a target directory each) and runs N pairs per
# workload (default: all of BENCHMARK.json's) exactly as the driver runs
# them, alternating which side goes first. Per workload and end-to-end
# metric it prints the parent's median, quartile distance and min-max, the
# change's median and min-max, the pairs the change won (ties count for
# neither side), and a verdict from the metric's direction and bound
# (below). A run that covers both gossip_scale and gossip_scale_mt also
# prints, per side, what the extra threads buy: the ratio of the two
# workloads' node_s_per_wall_s medians (ROADMAP item 2). Per workload and
# side, one more line gives the median of ops_attempted and of
# wire_bytes_per_node_s / ops_attempted, the change's with its move: wire
# bytes that rise only because more requests complete show as a rise in
# the first and none in the second. These lines set no verdict.
#
#   better         of at least 10 pairs the change won 9 in 10, and the
#                  medians are further apart than the parent's quartiles
#   unresolved     the parent's own runs range over more than the bound
#                  ((max - min) / min, perfbench's `spread()`) and the two
#                  sides' ranges overlap: no telling either way
#   WORSE          the change's median is worse by more than the bound
#   no regression  everything else
#
# Exits non-zero on any WORSE, on a lower ops_ok_share, on a run the
# benchmark's own checks call incorrect, or when a deterministic row
# (sim_digest, rtt_p50_ms, rtt_p95_ms, wire_bytes_per_node_s) differs
# between the sides — unless --behaviour-changes says that is intended.
# Every run's values stay in target/verify/bench_gate/runs-*.tsv.
#
# About 20 s a run, so the default is over half an hour: not a step of
# verify.sh. Run it on an otherwise idle machine.
#
# The parent is unpacked with `git archive`, not `git worktree add`: the
# same files, and nothing registered in .git to prune afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench_gate.sh <parent-rev> [--pairs N] [--seed S] [--behaviour-changes] [workload...]" >&2
  exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10 seed=7 behaviour_changes=0 workloads=()
while [ $# -gt 0 ]; do
  case $1 in
    --pairs) pairs=${2:?--pairs needs a value}; shift 2 ;;
    --seed) seed=${2:?--seed needs a value}; shift 2 ;;
    --behaviour-changes) behaviour_changes=1; shift ;;
    -*) usage ;;
    *) workloads+=("$1"); shift ;;
  esac
done
command -v python3 >/dev/null || { echo "bench_gate: needs python3 (to read BENCHMARK.json)" >&2; exit 2; }

sha=$(git rev-parse --verify --short=12 "$rev^{commit}")
out=$PWD/target/verify/bench_gate
parent=$out/parent-$sha
if [ ! -d "$parent" ]; then
  mkdir -p "$parent.tmp"
  git archive "$sha" | tar -x -C "$parent.tmp"
  mv "$parent.tmp" "$parent"
fi

echo "bench_gate: building $sha and the working tree" >&2
for side in parent change; do
  tree=$PWD
  [ $side = parent ] && tree=$parent
  CARGO_TARGET_DIR=$out/target-$side \
    cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml"
done

run_seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

# One line per run, in the order run: workload, pair, side, report.
runs=$out/runs-$sha-seed$seed.tsv
: >"$runs"
for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    order="parent change"
    [ $((pair % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
      tree=$PWD
      [ $side = parent ] && tree=$parent
      echo "bench_gate: $workload seed $seed pair $pair/$pairs: $side" >&2
      (cd "$tree" && "$out/target-$side/release/perfbench" --workload "$workload" --seed "$seed" \
        --seconds "$run_seconds" --trace 0 --out "$out/run.json") >/dev/null
      printf '%s\t%s\t%s\t%s\n' "$workload" "$pair" "$side" "$(cat "$out/run.json")" >>"$runs"
    done
  done
done

# gossip_scale_mt's shards and threads, as perfbench picks them.
threads=$(nproc)
[ "$threads" -gt 4 ] && threads=4

python3 - "$runs" "$sha" "$seed" "$behaviour_changes" "$threads" <<'EOF'
import json, statistics, sys

runs_path, sha, seed, behaviour_changes = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1"
mt_threads = sys.argv[5]
bench = json.load(open("BENCHMARK.json"))
DETERMINISTIC = ["rtt_p50_ms", "rtt_p95_ms", "wire_bytes_per_node_s"]

runs = {}  # workload -> pair -> side -> report
for line in open(runs_path):
    workload, pair, side, report = line.rstrip("\n").split("\t", 3)
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = json.loads(report)

def quartile_distance(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

def fmt(x):
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:.0f}"

failures = []
volume = []  # the per-side ops_attempted lines, printed after the table
print(f"parent {sha}, seed {seed}; `iqr` = distance between the parent's quartiles, `won` = pairs in")
print("which the change read better / pairs not tied")
print()
print("| workload | metric | better | bound | parent median | iqr | min-max | change median | min-max | won | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
for workload, pairs in runs.items():
    sides = {s: [pairs[p][s] for p in sorted(pairs)] for s in ("parent", "change")}
    for s, reports in sides.items():
        if not all(r["correct"] for r in reports):
            failures.append(f"{workload}: a {s} run failed the benchmark's own checks")
    digests = {s: sorted({r["sim_digest"] for r in sides[s]}) for s in sides}
    if digests["parent"] != digests["change"]:
        print(f"| {workload} | sim_digest | | | {' '.join(d[:12] for d in digests['parent'])} | | "
              f"| {' '.join(d[:12] for d in digests['change'])} | | | differs |")
        if not behaviour_changes:
            failures.append(f"{workload}: sim_digest differs")
    else:
        print(f"| {workload} | sim_digest | | | {digests['parent'][0][:12]} | | | equal | | | |")
    volume_medians = {s: (statistics.median(r["ops_attempted"] for r in reports),
                          statistics.median(r["metrics"]["wire_bytes_per_node_s"]["value"]
                                            / max(r["ops_attempted"], 1) for r in reports))
                      for s, reports in sides.items()}
    for s, (ops, per_op) in volume_medians.items():
        def move(i):
            base = volume_medians["parent"][i]
            return f" ({volume_medians[s][i] / base - 1:+.2%})" if s == "change" and base else ""
        volume.append(f"bench_gate: {workload} {s}: ops_attempted median {fmt(ops)}{move(0)}, "
                      f"wire_bytes_per_node_s / ops_attempted median {per_op:.4g}{move(1)}")
    for m in bench["end_to_end"]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in sides["parent"]]
        c = [r["metrics"][name]["value"] for r in sides["change"]]
        better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
        won = sum(better(y, x) for x, y in zip(p, c))
        lost = sum(better(x, y) for x, y in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        scale = abs(pm) if pm else 1.0
        worse_by = ((pm - cm) if higher else (cm - pm)) / scale
        overlap = min(c) <= max(p) and min(p) <= max(c)
        if len(p) >= 10 and won >= 0.9 * (won + lost) and -worse_by * scale > quartile_distance(p):
            verdict = "better"
        elif (max(p) - min(p)) / (abs(min(p)) or 1.0) > bound and overlap:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "WORSE"
            failures.append(f"{workload}: {name} is WORSE")
        else:
            verdict = "no regression"
        if name in DETERMINISTIC and sorted(set(p)) != sorted(set(c)) and not behaviour_changes:
            failures.append(f"{workload}: {name} is deterministic and differs")
        if name == "ops_ok_share" and cm < pm:
            failures.append(f"{workload}: ops_ok_share fell from {pm} to {cm}")
        print(f"| {workload} | {name} ({m['unit']}) | {m['better']} | {bound:.0%} "
              f"| {fmt(pm)} | {fmt(quartile_distance(p))} | {fmt(min(p))}-{fmt(max(p))} "
              f"| {fmt(cm)} | {fmt(min(c))}-{fmt(max(c))} | {won}/{won + lost} | {verdict} |")
print()
for line in volume:
    print(line)
if "gossip_scale" in runs and "gossip_scale_mt" in runs:
    def median_speed(workload, side):
        return statistics.median(
            r[side]["metrics"]["node_s_per_wall_s"]["value"] for r in runs[workload].values())
    for side in ("parent", "change"):
        one, mt = median_speed("gossip_scale", side), median_speed("gossip_scale_mt", side)
        print(f"bench_gate: {side}: gossip_scale_mt on {mt_threads} threads runs at {mt / one:.2f} x "
              f"gossip_scale (node_s_per_wall_s medians {fmt(mt)} / {fmt(one)})")
for f in failures:
    print(f"bench_gate: {f}")
print(f"bench_gate: {'FAILED' if failures else 'passed'} "
      f"({sum(len(p) for p in runs.values())} pairs; every run in {runs_path})")
sys.exit(1 if failures else 0)
EOF
