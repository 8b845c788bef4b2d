#!/usr/bin/env bash
# Interleaved A/B comparison of two commits with bench_service.
#
#   bash bench/service/ab.sh <base> <change> [runs] [seconds] [workloads]
#
# <base> and <change> are commits, or "." for the working tree (stamped
# dirty when it has uncommitted changes).  Each side is exported into its
# own tree under .bench_build/ab/ and built there; both sides run the
# benchmark code of the current working tree, so only the library under
# test differs.  Runs alternate in pairs, which side goes first alternating
# too, and both runs of a pair use the same seed (defaults: 10 pairs over
# every workload in BENCHMARK.json, runs as long as its run_seconds).
#
# The report gives, per (metric, workload), each side's median and
# quartiles, the change's win fraction over the pairs, and a verdict by
# the repository's rule for claiming a gain: over at least ten pairs, the
# change wins at least nine tenths of them and the medians differ by more
# than the base's own quartile spread.  A change worse than the base's
# median by more than the metric's bound is a regression; a base spread
# wider than the bound leaves the metric unresolved, unless every run of
# the change reads better than every run of the base.  Provenance (CPU
# model, nproc, kernel, the shas measured, dirty flags) heads the report,
# which also lands in .bench_build/ab/report.json.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,22p' "$0" >&2
  exit 2
fi
base_ref=$1
change_ref=$2
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(git -C "$here" rev-parse --show-toplevel)"
spec="$root/BENCHMARK.json"
runs=${3:-10}
seconds=${4:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")}
workloads=${5:-$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")}
work="$root/.bench_build/ab"
rm -rf "$work"
mkdir -p "$work"

# export <ref> <dir>: the tree of <ref> (or the working tree for "."),
# with this working tree's benchmark code; prints "<sha> <dirty>".
export_tree() {
  local ref=$1 dir=$2 sha dirty=false
  mkdir -p "$dir"
  if [ "$ref" = "." ]; then
    sha=$(git -C "$root" rev-parse HEAD)
    [ -n "$(git -C "$root" status --porcelain)" ] && dirty=true
    (cd "$root" && git ls-files -z --cached --others --exclude-standard |
      xargs -0 tar -cf - --no-recursion --ignore-failed-read) |
      tar -xf - -C "$dir"
  else
    sha=$(git -C "$root" rev-parse "$ref^{commit}")
    git -C "$root" archive "$sha" | tar -xf - -C "$dir"
  fi
  rm -rf "$dir/bench/service"
  mkdir -p "$dir/bench/service"
  cp -R "$here/." "$dir/bench/service/"
  echo "$sha $dirty"
}

read -r base_sha base_dirty < <(export_tree "$base_ref" "$work/base")
read -r change_sha change_dirty < <(export_tree "$change_ref" "$work/change")
for side in base change; do
  echo "building $side" >&2
  cmake -S "$work/$side/bench/service" -B "$work/build-$side" \
    -DCMAKE_BUILD_TYPE=Release >&2
  cmake --build "$work/build-$side" --parallel 4 >&2
done

results="$work/results.jsonl"
: >"$results"
IFS=',' read -r -a names <<<"$workloads"
for ((pair = 0; pair < runs; pair++)); do
  seed=$((1000 + pair))
  if ((pair % 2 == 0)); then order=(base change); else order=(change base); fi
  for w in "${names[@]}"; do
    for side in "${order[@]}"; do
      echo "pair $pair $w $side (seed $seed)" >&2
      line=$(cd "$work/$side" &&
        "$work/build-$side/bench_service" --workload "$w" --seed "$seed" \
          --seconds "$seconds" --trace 0 --out "$work/BENCH_service_$side.json" |
        tail -n 1) || true
      printf '{"pair": %d, "side": "%s", "workload": "%s", "result": %s}\n' \
        "$pair" "$side" "$w" "${line:-null}" >>"$results"
    done
  done
done

python3 - "$spec" "$results" "$work/report.json" \
  "$base_sha" "$base_dirty" "$change_sha" "$change_dirty" <<'EOF'
import json, platform, os, statistics, sys

spec_path, results_path, report_path = sys.argv[1:4]
base_sha, base_dirty, change_sha, change_dirty = sys.argv[4:8]
spec = {m["name"]: m for m in json.load(open(spec_path))["end_to_end"]}
cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
            if l.startswith("model name")), "unknown")
meta = {"cpu_model": cpu, "nproc": os.cpu_count(), "kernel": platform.release(),
        "base": {"sha": base_sha, "dirty": base_dirty == "true"},
        "change": {"sha": change_sha, "dirty": change_dirty == "true"}}
print(json.dumps(meta))

runs = {}  # (workload, metric) -> pair -> side -> value
bad = []
for line in open(results_path):
    r = json.loads(line)
    if not r["result"] or not r["result"]["correct"]:
        bad.append((r["workload"], r["pair"], r["side"]))
        continue
    for name, m in r["result"]["metrics"].items():
        runs.setdefault((r["workload"], name), {}).setdefault(r["pair"], {})[r["side"]] = m["value"]
for b in bad:
    print("incorrect or failed run:", *b)

rows = []
print(f"{'workload':16} {'metric':22} {'base med':>11} {'base q1..q3':>23} "
      f"{'change med':>11} {'change q1..q3':>23} {'win':>5}  verdict")
for (w, name), pairs in sorted(runs.items()):
    lower = spec[name]["better"] == "lower"
    bound = spec[name]["bound"]
    both = [p for p in pairs.values() if "base" in p and "change" in p]
    a = [p["base"] for p in both]
    b = [p["change"] for p in both]
    if len(a) < 2:
        continue
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    ma, mb = statistics.median(a), statistics.median(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    win = wins / len(both)
    worse = (mb - ma) if lower else (ma - mb)
    spread = qa[2] - qa[0]
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if win >= 0.9 and -worse > spread:
        verdict = "gain" if len(both) >= 10 else "gain needs at least 10 pairs"
    elif ma and worse > bound * abs(ma):
        verdict = "regression"
    elif ma and spread > bound * abs(ma) and not all_better:
        verdict = "unresolved (base spread wider than bound)"
    else:
        verdict = "no change beyond bound"
    rows.append({"workload": w, "metric": name, "base_median": ma, "base_q": [qa[0], qa[2]],
                 "change_median": mb, "change_q": [qb[0], qb[2]], "win_fraction": win,
                 "pairs": len(both), "verdict": verdict})
    print(f"{w:16} {name:22} {ma:11.5g} {qa[0]:11.5g}..{qa[2]:<11.5g} "
          f"{mb:11.5g} {qb[0]:11.5g}..{qb[2]:<11.5g} {win:5.2f}  {verdict}")
json.dump({"meta": meta, "rows": rows, "failed_runs": bad}, open(report_path, "w"), indent=1)
EOF
