#!/usr/bin/env bash
# Repeatability check: two sets of N untraced runs of each workload, seeds
# 1..N in both, alternating which set runs first. For every end-to-end metric
# it prints each set's median and quartiles, the spread (quartile distance
# over the median) next to a third of the metric's bound, and whether the two
# medians agree within BENCHMARK.json's bound. Exits 1 when a run fails its
# checks or the two sets disagree.
#
#   benchmark/repeat.sh [-n RUNS] [WORKLOAD...]
#
# Run from the repository root; the default is 5 runs per set of every
# workload at BENCHMARK.json's run_seconds. Results go to .bench_build/repeat/.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while getopts "n:" opt; do
  case $opt in
    n) runs=$OPTARG ;;
    *) echo "usage: $0 [-n RUNS] [WORKLOAD...]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  mapfile -t workloads < <(python3 -c 'import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

out=.bench_build/repeat
rm -rf "$out"
mkdir -p "$out"
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$runs"); do
    if (( i % 2 )); then order="a b"; else order="b a"; fi
    for set in $order; do
      echo "repeat.sh: $w set $set seed $i" >&2
      python3 benchmark/run.py --workload "$w" --seed "$i" \
        --seconds "$seconds" --trace 0 2>>"$out/stderr.log" |
        tail -n 1 >"$out/$w.$set.$i.json"
    done
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

out, workloads = Path(sys.argv[1]), sys.argv[2:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
ok = True


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


for w in workloads:
    runs = {s: [json.loads(p.read_text())
                for p in sorted(out.glob(f"{w}.{s}.*.json"))] for s in "ab"}
    bad = [r for s in "ab" for r in runs[s] if not r["correct"] or r["failed"]]
    ok &= not bad
    print(f"\n{w}: {len(runs['a'])} + {len(runs['b'])} runs, "
          f"{len(bad)} with failed checks")
    print(f"  {'metric':27} {'set a median [q1, q3]':>36} "
          f"{'set b median [q1, q3]':>36} {'spread a/b':>13} {'bound/3':>8} "
          "agree")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        sa = stats([r["metrics"][name]["value"] for r in runs["a"]])
        sb = stats([r["metrics"][name]["value"] for r in runs["b"]])
        worse_b = sb[0] - sa[0] if m["better"] == "lower" else sa[0] - sb[0]
        agree = abs(worse_b) <= bound * max(abs(sa[0]), abs(sb[0]))
        ok &= agree
        fmt = lambda s: f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"
        print(f"  {name:27} {fmt(sa):>36} {fmt(sb):>36} "
              f"{sa[3]:6.3f}/{sb[3]:6.3f} {bound / 3:8.3g} "
              f"{'yes' if agree else 'NO'}")
sys.exit(0 if ok else 1)
EOF
