#!/bin/sh
# Metrics-surface golden: runs the exporters on fixed, deterministic inputs
# and writes the exported metric surface to stdout. Legs:
#   - `topk --threads=1 --k=7` for brute, basic, improved and join, on the
#     competitor/product pair of tools/topk_offline_golden.sh;
#   - `serve --replay=bench/workloads/serve_1k.csv`, plain and with
#     `--batch-max=8 --memo-cache-mb=16`.
# Each leg's Prometheus output keeps every `# HELP` / `# TYPE` line and the
# samples of counter and gauge metrics whose name does not end in
# `_seconds` (wall times vary run to run); histogram samples are dropped.
#
#   tools/metrics_surface_golden.sh build/src/skyup_cli WORKDIR
#
# Compare the output against bench/workloads/metrics_surface.expected with
# `cmp`; the ctest `metrics_surface_golden` and the CI golden step do
# exactly that.
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 SKYUP_CLI WORKDIR" >&2
  exit 2
fi
cli=$1
work=$2
workloads=$(dirname "$0")/../bench/workloads
mkdir -p "$work"

# Prints one leg's surface under a `== <leg>` header.
surface() {
  echo "== $1"
  awk '
    /^# TYPE / { type = $4 }
    /^#/ { print; next }
    {
      name = $1
      sub(/\{.*/, "", name)
      if ((type == "counter" || type == "gauge") && name !~ /_seconds$/)
        print
    }' "$2"
}

"$cli" generate --out="$work/P.csv" --count=3000 --dims=3 --dist=anti \
  --seed=11 > /dev/null
"$cli" generate --out="$work/T.csv" --count=300 --dims=3 --dist=indep \
  --lo=0.2 --hi=1.2 --seed=12 > /dev/null

for algorithm in brute basic improved join; do
  "$cli" topk --competitors="$work/P.csv" --products="$work/T.csv" \
    --threads=1 --k=7 --algorithm="$algorithm" \
    --metrics-out="$work/topk_$algorithm.prom" > /dev/null
  surface "topk $algorithm" "$work/topk_$algorithm.prom"
done

"$cli" serve --replay="$workloads/serve_1k.csv" \
  --metrics-out="$work/serve.prom" > /dev/null
surface "serve" "$work/serve.prom"
"$cli" serve --replay="$workloads/serve_1k.csv" --batch-max=8 \
  --memo-cache-mb=16 --metrics-out="$work/serve_batched.prom" > /dev/null
surface "serve --batch-max=8 --memo-cache-mb=16" \
  "$work/serve_batched.prom"
