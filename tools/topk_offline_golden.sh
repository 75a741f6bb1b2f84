#!/bin/sh
# Offline top-k golden loop: generates a fixed competitor/product pair with
# the CLI, runs `topk --format=json` for every k in {1, 7, 40} and every
# algorithm, and writes the concatenated JSON to stdout. Any extra
# arguments are passed to every `topk` call (e.g. --threads=3).
#
#   tools/topk_offline_golden.sh build/src/skyup_cli WORKDIR [topk flags...]
#
# Compare the output against bench/workloads/topk_offline.expected with
# `cmp`; the ctest `topk_offline_golden_*` and the CI golden step do
# exactly that.
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 SKYUP_CLI WORKDIR [topk flags...]" >&2
  exit 2
fi
cli=$1
work=$2
shift 2
mkdir -p "$work"

"$cli" generate --out="$work/P.csv" --count=3000 --dims=3 --dist=anti \
  --seed=11 > /dev/null
"$cli" generate --out="$work/T.csv" --count=300 --dims=3 --dist=indep \
  --lo=0.2 --hi=1.2 --seed=12 > /dev/null

for k in 1 7 40; do
  for algorithm in brute basic improved join; do
    "$cli" topk --competitors="$work/P.csv" --products="$work/T.csv" \
      --k="$k" --algorithm="$algorithm" --format=json "$@"
  done
done
