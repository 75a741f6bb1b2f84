#!/usr/bin/env sh
# Runs the micro-benchmark suite and records the result as JSON at the
# repository root (BENCH_topk.json). The file captures the probe hot path
# both ways — pointer/scalar baseline (BM_DominatingSkylineProbe,
# BM_TopKImprovedProbing) and flat/batched (BM_*Flat) — so the speedup of
# the arena + SIMD path is reproducible from one artifact.
#
# Usage: bench/run_bench.sh [--smoke|--serve|--load|--shard] [build-dir]
#        [output-file]
# Defaults: build-dir = ./build, output-file = ./BENCH_topk.json.
# The CMake target `run_bench` invokes this with its own build dir.
#
# --smoke: CI mode. Every registered benchmark runs for a minimal time
# (one repetition, ~10ms each) purely to prove the bench binary and its
# data generators still execute; results go to stdout and NO json file is
# written, so a CI run can never clobber the committed baseline.
#
# --serve: serving-layer section only. Replays a generated update+query
# workload through `skyup_cli serve --replay` (deterministic mode) and
# folds update throughput + query-latency percentiles under churn into
# BENCH_topk.json["serve"], leaving every other section untouched.
#
# --load: closed-loop saturation section. Runs `skyup_cli serve
# --load-gen` twice against the same workload shape — amortization OFF
# (--batch-max=1 --memo-cache-mb=0) and ON (--batch-max=32
# --memo-cache-mb=64) — and folds both reports plus the QPS-per-core and
# p99 improvement factors into BENCH_topk.json["load"].
#
# --shard: shard-per-core saturation A/B. Runs the same closed-loop
# workload against --shards=1 (a single table) and against
# --shards=<cores> (scatter-gather workers = cores), and folds both
# reports plus the N-shard/one-shard QPS and p99 factors — with the shard
# count and partitioner kind recorded — into BENCH_topk.json["shard"].
#
# Provenance: every mode that writes BENCH_topk.json refuses to run
# against a non-Release build directory (numbers from -O0/debug builds
# have poisoned committed baselines before). --smoke is exempt — it
# writes nothing.
set -eu

smoke=0
serve=0
load=0
shard=0
if [ "${1:-}" = "--smoke" ]; then
  smoke=1
  shift
elif [ "${1:-}" = "--serve" ]; then
  serve=1
  shift
elif [ "${1:-}" = "--load" ]; then
  load=1
  shift
elif [ "${1:-}" = "--shard" ]; then
  shard=1
  shift
fi

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out_file=${2:-"$repo_root/BENCH_topk.json"}
bench_bin="$build_dir/bench/bench_micro"

if [ "$smoke" != 1 ]; then
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
    "$build_dir/CMakeCache.txt" 2>/dev/null || true)
  if [ "$build_type" != "Release" ]; then
    echo "error: refusing to write benchmark JSON from a non-Release" \
      "build (CMAKE_BUILD_TYPE='${build_type:-unknown}' in" \
      "$build_dir/CMakeCache.txt)." >&2
    echo "Configure with -DCMAKE_BUILD_TYPE=Release, or use --smoke" \
      "(which writes no JSON)." >&2
    exit 1
  fi
fi

if [ "$serve" = 1 ]; then
  cli_bin="$build_dir/src/skyup_cli"
  if [ ! -x "$cli_bin" ]; then
    echo "error: $cli_bin not found or not executable." >&2
    echo "Build it first: cmake --build $build_dir --target skyup_cli" >&2
    exit 1
  fi
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT
  # A churn-heavy mix (the generator interleaves ~73% updates with
  # queries) at 20k ops: every query runs against a live backlog, so the
  # p99 below is latency *under churn*, not steady-state.
  "$cli_bin" serve --gen-ops="$workdir/ops.csv" --ops=20000 --dims=3 \
    --seed=42
  "$cli_bin" serve --replay="$workdir/ops.csv" \
    --out="$workdir/results.txt" --metrics-out="$workdir/metrics.json" \
    2> "$workdir/summary.txt"
  cat "$workdir/summary.txt"
  python3 - "$out_file" "$workdir/metrics.json" "$workdir/summary.txt" <<'EOF'
import json, re, sys
out_path, metrics_path, summary_path = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    with open(out_path) as f:
        bench = json.load(f)
except FileNotFoundError:
    bench = {}
with open(metrics_path) as f:
    metrics = json.load(f)
wall_us = int(re.search(r"in (\d+) us", open(summary_path).read()).group(1))
counters = metrics.get("counters", {})
gauges = metrics.get("gauges", {})
updates = counters.get("skyup_serve_updates_applied_total", 0)
latency = metrics.get("histograms", {}).get(
    "skyup_serve_query_latency_seconds", {})
bench["serve"] = {
    "workload": "generated seed=42 ops=20000 dims=3, deterministic replay",
    "wall_seconds": wall_us / 1e6,
    "updates_applied": updates,
    "update_throughput_per_s": updates / (wall_us / 1e6) if wall_us else None,
    "queries_executed": counters.get("skyup_serve_queries_executed_total"),
    "rebuilds_published": counters.get("skyup_serve_rebuilds_published_total"),
    "patches_published": counters.get("skyup_serve_patches_published_total"),
    "erase_fallback_scans": counters.get(
        "skyup_serve_erase_fallback_scans_total"),
    "candidates_pruned": counters.get("skyup_serve_candidates_pruned_total"),
    "prune_disabled_queries": counters.get(
        "skyup_serve_prune_disabled_queries_total"),
    "cache_hits": counters.get("skyup_serve_cache_hits_total"),
    "cache_misses": counters.get("skyup_serve_cache_misses_total"),
    "memo_hits": counters.get("skyup_serve_memo_hits_total"),
    "memo_misses": counters.get("skyup_serve_memo_misses_total"),
    "batches_executed": counters.get("skyup_serve_batches_executed_total"),
    "final_epoch": gauges.get("skyup_serve_snapshot_epoch"),
    "final_backlog_ops": gauges.get("skyup_serve_delta_backlog_ops"),
    "query_latency": {
        k: latency.get(k) for k in ("count", "p50", "p95", "p99")
    },
}
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("merged serve section into", out_path)
EOF
  # Flight-recorder overhead: the same deterministic replay, recorder on
  # (the always-on default) vs --flight-recorder=off, best-of-5 wall time
  # each — min-of-N is the standard estimator for a bimodal-noise floor.
  # The top-level CMakeLists compiles Release with -falign-functions=64
  # precisely so this A/B delta measures the recorder, not the code
  # layout shift from the disabled branch. Acceptance budget: <= 2%.
  trials=5
  i=1
  while [ "$i" -le "$trials" ]; do
    "$cli_bin" serve --replay="$workdir/ops.csv" \
      --out="$workdir/results_on.txt" 2> "$workdir/rec_on_$i.txt"
    "$cli_bin" serve --replay="$workdir/ops.csv" --flight-recorder=off \
      --out="$workdir/results_off.txt" 2> "$workdir/rec_off_$i.txt"
    i=$((i + 1))
  done
  # Determinism guard at bench level: the recorder is observe-only, so
  # the result log must be byte-identical with it on or off.
  cmp "$workdir/results_on.txt" "$workdir/results_off.txt"
  python3 - "$out_file" "$workdir" "$trials" <<'EOF'
import json, re, sys
out_path, workdir, trials = sys.argv[1], sys.argv[2], int(sys.argv[3])

def best_us(prefix):
    walls = []
    for i in range(1, trials + 1):
        with open(f"{workdir}/{prefix}_{i}.txt") as f:
            walls.append(int(re.search(r"in (\d+) us", f.read()).group(1)))
    return min(walls), walls

on_best, on_all = best_us("rec_on")
off_best, off_all = best_us("rec_off")
overhead_pct = 100.0 * (on_best - off_best) / off_best if off_best else None
with open(out_path) as f:
    bench = json.load(f)
bench["obs_overhead"] = {
    "workload": "generated seed=42 ops=20000 dims=3, deterministic replay",
    "methodology": ("best-of-%d wall time, recorder on (default) vs "
                    "--flight-recorder=off; Release built with "
                    "-falign-functions=64 to pin code layout; result "
                    "logs cmp-identical" % trials),
    "recorder_on_best_us": on_best,
    "recorder_off_best_us": off_best,
    "recorder_on_trials_us": on_all,
    "recorder_off_trials_us": off_all,
    "overhead_pct": overhead_pct,
    "budget_pct": 2.0,
}
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("merged obs_overhead into %s: %.2f%% (budget 2%%)"
      % (out_path, overhead_pct or 0.0))
EOF
  exit 0
fi

if [ "$load" = 1 ]; then
  cli_bin="$build_dir/src/skyup_cli"
  if [ ! -x "$cli_bin" ]; then
    echo "error: $cli_bin not found or not executable." >&2
    echo "Build it first: cmake --build $build_dir --target skyup_cli" >&2
    exit 1
  fi
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT
  # Saturation (unpaced closed loop): more clients than workers so the
  # queue actually forms — grouped execution only amortizes work the
  # queue presents to it. Identical shape both runs; only the
  # amortization knobs differ.
  common="--dims=3 --duration=10 --clients=16 --threads=2 \
    --preload-p=30000 --preload-t=1500 --query-fraction=0.9 --k=10 \
    --rebuild-threshold=1024 --seed=42"
  echo "load-gen baseline (batch-max=1, memo off) ..."
  # shellcheck disable=SC2086
  "$cli_bin" serve --load-gen $common --batch-max=1 --memo-cache-mb=0 \
    --out="$workdir/base.json"
  echo "load-gen amortized (batch-max=32, memo 64MB) ..."
  # shellcheck disable=SC2086
  "$cli_bin" serve --load-gen $common --batch-max=32 --memo-cache-mb=64 \
    --out="$workdir/amortized.json"
  python3 - "$out_file" "$workdir/base.json" "$workdir/amortized.json" <<'EOF'
import json, sys
out_path, base_path, amortized_path = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    with open(out_path) as f:
        bench = json.load(f)
except FileNotFoundError:
    bench = {}
with open(base_path) as f:
    base = json.load(f)
with open(amortized_path) as f:
    amortized = json.load(f)
qps_x = (amortized["achieved_qps_per_core"] / base["achieved_qps_per_core"]
         if base["achieved_qps_per_core"] else None)
p99_x = (base["latency_p99_seconds"] / amortized["latency_p99_seconds"]
         if amortized["latency_p99_seconds"] else None)
bench["load"] = {
    "workload": ("closed-loop saturation: 16 clients over 2 workers, "
                 "P=30000 T=1500 d=3 k=10, 90% queries, 10 s, seed=42"),
    "baseline": base,
    "amortized": amortized,
    "qps_per_core_improvement": qps_x,
    "p99_improvement": p99_x,
}
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("merged load section into", out_path)
print("qps/core improvement: %.2fx, p99 improvement: %.2fx"
      % (qps_x or 0.0, p99_x or 0.0))
EOF
  exit 0
fi

if [ "$shard" = 1 ]; then
  cli_bin="$build_dir/src/skyup_cli"
  if [ ! -x "$cli_bin" ]; then
    echo "error: $cli_bin not found or not executable." >&2
    echo "Build it first: cmake --build $build_dir --target skyup_cli" >&2
    exit 1
  fi
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT
  cores=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
  shards=$cores
  # Floor of 4: on tiny containers a 1-shard "sharded" run would A/B
  # nothing; 4 shards still exercises routing + scatter-gather (the
  # partition is correct on any core count, only the speedup needs
  # cores).
  [ "$shards" -lt 4 ] && shards=4
  # Saturation shape tuned for raw QPS (small k, memo+batching on, big
  # client fleet): the A/B isolates sharding — identical knobs except
  # --shards. The one-shard run gives the single-table worker pool the
  # same core budget the sharded run spends on shard workers, so the
  # comparison is cores-for-cores.
  common="--dims=3 --duration=10 --clients=32 --query-fraction=0.95 \
    --k=5 --preload-p=30000 --preload-t=1500 --rebuild-threshold=2048 \
    --batch-max=32 --memo-cache-mb=64 --seed=42"
  echo "shard A/B baseline (one shard, threads=$cores) ..."
  # shellcheck disable=SC2086
  "$cli_bin" serve --load-gen $common --threads="$cores" --shards=1 \
    --out="$workdir/single.json"
  echo "shard A/B sharded (shards=$shards, $cores shard workers) ..."
  # Shard workers = cores (the shard-per-core deployment shape): with
  # fewer cores than shards, spawning one worker per shard would only
  # oversubscribe; ParallelFor folds multiple shards into each worker.
  # shellcheck disable=SC2086
  "$cli_bin" serve --load-gen $common --threads="$cores" \
    --shards="$shards" --shard-threads="$cores" \
    --out="$workdir/sharded.json"
  python3 - "$out_file" "$workdir/single.json" "$workdir/sharded.json" \
    "$shards" <<'EOF'
import json, sys
out_path, single_path, sharded_path = sys.argv[1], sys.argv[2], sys.argv[3]
shards = int(sys.argv[4])
try:
    with open(out_path) as f:
        bench = json.load(f)
except FileNotFoundError:
    bench = {}
with open(single_path) as f:
    single = json.load(f)
with open(sharded_path) as f:
    sharded = json.load(f)
qps_x = (sharded["achieved_qps"] / single["achieved_qps"]
         if single["achieved_qps"] else None)
p99_x = (single["latency_p99_seconds"] / sharded["latency_p99_seconds"]
         if sharded["latency_p99_seconds"] else None)
bench["shard"] = {
    "workload": ("closed-loop saturation: 32 clients, P=30000 T=1500 d=3 "
                 "k=5, 95% queries, 10 s, seed=42; same core budget both "
                 "runs"),
    "shards": shards,
    "partitioner": "str-tiles",
    "single_table": single,
    "sharded": sharded,
    "qps_improvement": qps_x,
    "p99_improvement": p99_x,
}
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("merged shard section into", out_path)
print("sharded %.0f qps vs single-table %.0f qps (%.2fx), p99 %.2fx"
      % (sharded["achieved_qps"], single["achieved_qps"],
         qps_x or 0.0, p99_x or 0.0))
EOF
  exit 0
fi

if [ ! -x "$bench_bin" ]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build it first: cmake --build $build_dir --target bench_micro" >&2
  exit 1
fi

if [ "$smoke" = 1 ]; then
  "$bench_bin" \
    --benchmark_min_time=0.01 \
    --benchmark_repetitions=1
  echo "bench smoke: OK (no json written)"
  exit 0
fi

"$bench_bin" \
  --benchmark_filter='BM_DominatingSkylineProbe|BM_TopKImprovedProbing$|BM_TopKImprovedProbingFlat|BM_FilterDominatedKernel|BM_DominatesAnyKernel' \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json \
  --benchmark_out="$out_file" \
  --benchmark_out_format=json

# Phase attribution: run one representative sharded top-k query through
# the CLI with telemetry on and fold the per-phase seconds + latency
# percentiles into the benchmark artifact under "phase_profile", so a
# BENCH_topk.json regression diff also shows WHERE the time moved.
cli_bin="$build_dir/src/skyup_cli"
if [ -x "$cli_bin" ]; then
  workdir=$(mktemp -d)
  trap 'rm -rf "$workdir"' EXIT
  "$cli_bin" generate --out="$workdir/P.csv" --count=20000 --dims=3 \
    --dist=anti --seed=7
  "$cli_bin" generate --out="$workdir/T.csv" --count=2000 --dims=3 \
    --dist=indep --seed=11
  "$cli_bin" topk --competitors="$workdir/P.csv" \
    --products="$workdir/T.csv" --k=50 --algorithm=improved --threads=4 \
    --metrics-out="$workdir/metrics.json" >/dev/null
  python3 - "$out_file" "$workdir/metrics.json" <<'EOF'
import json, sys
out_path, metrics_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    bench = json.load(f)
with open(metrics_path) as f:
    metrics = json.load(f)
gauges = metrics.get("gauges", {})
bench["phase_profile"] = {
    "workload": "anti 20000x2000 d=3 k=50 improved threads=4",
    "phase_seconds": {
        name.replace("skyup_phase_", "").replace("_seconds", ""): value
        for name, value in gauges.items()
        if name.startswith("skyup_phase_")
    },
    "wall_seconds": gauges.get("skyup_query_wall_seconds"),
    "shards": gauges.get("skyup_query_shards"),
    "latency": {
        name.replace("skyup_", "").replace("_seconds", ""): {
            k: histogram.get(k) for k in ("count", "p50", "p95", "p99")
        }
        for name, histogram in metrics.get("histograms", {}).items()
        if name.endswith("_latency_seconds")
    },
}
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
    f.write("\n")
print("merged phase profile into", out_path)
EOF
else
  echo "note: $cli_bin not built; phase_profile section skipped" >&2
fi

echo "wrote $out_file"
