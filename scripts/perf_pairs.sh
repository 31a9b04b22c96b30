#!/usr/bin/env bash
# Alternating-pairs comparison of a past revision against the working tree
# on one perfbench workload:
#
#   scripts/perf_pairs.sh <rev> <workload> <pairs> <first-seed>
#   scripts/perf_pairs.sh HEAD tiered_geo 10 6001
#
# Extracts <rev> with `git archive` into a temporary directory, then runs
# `perfbench/run.py` <pairs> times on each tree, alternating, for
# BENCHMARK.json's run_seconds per run. Pair i uses seed <first-seed>+i on
# both sides, and the side that runs first alternates from pair to pair so
# slow drift of the host does not favour either. Each tree builds into its
# own CARGO_TARGET_DIR under the temporary directory; the builds run before
# the benchmark binary starts, so they are not timed.
#
# Every run's JSON result line goes to standard error as it finishes. The
# summary on standard output gives, for each end-to-end metric in
# BENCHMARK.json: the parent (<rev>) and change (working tree) medians,
# their interquartile ranges, the median change in percent, and the pairs
# the working tree won. A nonzero exit means a run failed to build, a
# check failed, or some run reported failed > 0.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 4 ]]; then
  echo "usage: $0 <rev> <workload> <pairs> <first-seed>" >&2
  exit 2
fi
REV="$1" WORKLOAD="$2" PAIRS="$3" FIRST_SEED="$4"
ROOT="$(pwd)"
SECONDS_PER_RUN=$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/tree"
git archive "$REV" | tar -x -C "$WORK/tree"

# run_side <parent|change> <seed>: appends the result line to
# $WORK/<side>.jsonl.
run_side() {
  local side="$1" seed="$2" tree
  if [[ "$side" == parent ]]; then tree="$WORK/tree"; else tree="$ROOT"; fi
  local line
  if ! line=$(cd "$tree" && CARGO_TARGET_DIR="$WORK/build-$side" \
              python3 perfbench/run.py --workload "$WORKLOAD" --seed "$seed" \
                      --seconds "$SECONDS_PER_RUN" --trace 0 \
                      2>"$WORK/$side.log" | tail -n 1); then
    tail -n 20 "$WORK/$side.log" >&2
    echo "$side seed=$seed: run failed: $line" >&2
    exit 1
  fi
  echo "$side seed=$seed $line" >&2
  echo "$line" >> "$WORK/$side.jsonl"
}

for ((i = 0; i < PAIRS; i++)); do
  seed=$((FIRST_SEED + i))
  if ((i % 2 == 0)); then
    run_side parent "$seed"; run_side change "$seed"
  else
    run_side change "$seed"; run_side parent "$seed"
  fi
done

python3 - "$WORK/parent.jsonl" "$WORK/change.jsonl" "$REV" "$WORKLOAD" <<'EOF'
import json
import statistics
import sys

parent_path, change_path, rev, workload = sys.argv[1:5]
bench = json.load(open("BENCHMARK.json"))


def load(path):
    return [json.loads(line) for line in open(path)]


parent, change = load(parent_path), load(change_path)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


ok = True
for side, runs in (("parent", parent), ("change", change)):
    failed = sum(r.get("failed", 1) for r in runs)
    correct = all(r.get("correct", False) for r in runs)
    print(f"{side}: {len(runs)} runs, correct={correct}, failed={failed}")
    ok = ok and correct and failed == 0

print(f"\n{workload}: parent {rev} vs working tree, {len(parent)} pairs")
print(f"{'metric':<20} {'parent med':>12} {'IQR':>10} {'change med':>12} "
      f"{'IQR':>10} {'delta':>8} {'won':>6}")
for metric in bench["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pq, cq = quartiles(p), quartiles(c)
    delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
    won = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    print(f"{name:<20} {pq[1]:>12.4g} {pq[2] - pq[0]:>10.3g} {cq[1]:>12.4g} "
          f"{cq[2] - cq[0]:>10.3g} {delta:>+7.1f}% {won:>3}/{len(p)}")
sys.exit(0 if ok else 1)
EOF
