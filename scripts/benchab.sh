#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two commits.
#
#   scripts/benchab.sh BASE HEAD WORKLOAD PAIRS [FIRST_SEED]
#
# Extracts both commits with git archive under .bench_build/ab/, then runs
# _perfbench/run.sh from each tree PAIRS times on WORKLOAD for the
# run_seconds that BENCHMARK.json sets, one seed per pair (FIRST_SEED,
# default 1, upwards), alternating which side runs first. Prints one line
# per run, then for every end-to-end metric each side's median and Q1-Q3,
# the change in the median, on how many pairs HEAD was better (ties count
# for neither side), and a verdict against the metric's bound. Raw results
# stay in .bench_build/ab/WORKLOAD-BASE-HEAD-SEEDS.ndjson.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  sed -n '2,13p' "$0" >&2
  exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
head=$(git rev-parse --verify "$2^{commit}")
workload=$3 pairs=$4 first=${5:-1}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
root=.bench_build/ab
for c in "$base" "$head"; do
  if [ ! -d "$root/$c" ]; then
    rm -rf "$root/$c.tmp"
    mkdir -p "$root/$c.tmp"
    git archive "$c" | tar -x -C "$root/$c.tmp"
    mv "$root/$c.tmp" "$root/$c"
  fi
done
out="$root/$workload-${base:0:12}-${head:0:12}-$first+$pairs.ndjson"
: > "$out"

read -r -d '' show_run <<'EOF' || true
import json, sys
r = json.load(sys.stdin)
m = " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))
print("%-4s seed %3s correct=%s failed=%s/%s %s"
      % (sys.argv[1], sys.argv[2], r["correct"], r["failed"], r["attempted"], m))
EOF

run() { # side commit seed
  local line
  line=$(cd "$root/$2" && bash _perfbench/run.sh --workload "$workload" --seed "$3" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  printf '{"side":"%s","seed":%s,"result":%s}\n' "$1" "$3" "$line" >> "$out"
  printf '%s' "$line" | python3 -c "$show_run" "$1" "$3"
}

for ((i = 0; i < pairs; i++)); do
  seed=$((first + i))
  if ((i % 2 == 0)); then
    run base "$base" "$seed"
    run head "$head" "$seed"
  else
    run head "$head" "$seed"
    run base "$base" "$seed"
  fi
done

python3 - "$out" "$workload" <<'EOF'
import json
import statistics
import sys

bench = json.load(open("BENCHMARK.json"))
side = {"base": {}, "head": {}}
for line in open(sys.argv[1]):
    r = json.loads(line)
    side[r["side"]][r["seed"]] = r["result"]
seeds = sorted(set(side["base"]) & set(side["head"]))
n = len(seeds)


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3


print(f"\n{sys.argv[2]}: {n} pairs, seeds {seeds[0]}-{seeds[-1]}")
for s in ("base", "head"):
    runs = [side[s][k] for k in seeds]
    print(f"  {s}: correct {sum(r['correct'] for r in runs)}/{n} runs, "
          f"failed {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)} operations")
print(f"  {'metric':<11} {'base median (Q1-Q3)':>28} {'head median (Q1-Q3)':>28} {'change':>7} {'head better':>11}  verdict")
for m in bench["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    b = [side["base"][k]["metrics"][name]["value"] for k in seeds]
    h = [side["head"][k]["metrics"][name]["value"] for k in seeds]
    (bm, b1, b3), (hm, h1, h3) = stats(b), stats(h)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    change = hm / bm - 1 if bm else 0.0
    worse = change if lower else -change
    spread = max((b3 - b1) / bm if bm else 0.0, (h3 - h1) / hm if hm else 0.0)
    all_better = (max(h) < min(b)) if lower else (min(h) > max(b))
    if worse > bound:
        verdict = "WORSE than bound"
    elif spread > bound and not all_better:
        verdict = f"unresolved (spread {spread:.2f} > bound)"
    else:
        verdict = "within bound"
    print(f"  {name:<11} {bm:>10.4g} ({b1:.4g}-{b3:.4g}){'':>2} {hm:>10.4g} ({h1:.4g}-{h3:.4g}){'':>2}"
          f" {change:>+7.3f} {wins:>8}/{n}  {verdict} ({bound})")
EOF
