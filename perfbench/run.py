#!/usr/bin/env python3
"""The skyup benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload offline|churn|wire --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
`perfbench` CMake package (the library comes from the repository's own
CMakeLists, in Release) under `.bench_build/`; later runs only rebuild
what changed. The benchmark binary prints a human-readable report and, as
its last stdout line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; full reports and Chrome traces are
written under `.bench_out/`. A wrong answer makes the run exit non-zero.

`--self-test` runs a smoke size of every workload, traced and untraced,
and checks that each result names every metric in BENCHMARK.json with
its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "skyup_perfbench"
WORKLOADS = ("offline", "churn", "wire")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_id():
    """The commit when this is a git checkout, else a hash of the sources."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        # Only this checkout's own repository counts, not an enclosing one.
        if top.returncode == 0 and head.returncode == 0 and \
                Path(top.stdout.strip()).resolve() == ROOT:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True, timeout=10)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return "git:" + head.stdout.strip() + suffix
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no skyup sources under {ROOT}; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "skyup_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the binary; returns (exit code, parsed result or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(OUT)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(170.0, 3 * seconds + 30))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in time")
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def self_test():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, 1, 1, trace, smoke=True, echo=False)
            where = f"{workload} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result line")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: not correct")
            metrics = result.get("metrics", {})
            for m in expected[trace]:
                got = metrics.get(m["name"])
                if not isinstance(got, dict) or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: missing metric {m['name']}")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got.get('unit')!r} != {m['unit']!r}")
            names = {m["name"] for m in expected[trace]}
            for extra in sorted(set(metrics) - names):
                problems.append(f"{where}: unlisted metric {extra}")
            print(f"self-test {where}: {len(metrics)} metrics, "
                  f"attempted={result.get('attempted')}")
    if problems:
        for p in problems:
            print("self-test FAIL " + p)
        sys.exit(1)
    print("self-test ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        parser.error("--workload is required")
    code, result = run(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result is None:
        fail(f"{args.workload} failed (exit {code})")
    sys.exit(0 if result.get("correct") else 1)


if __name__ == "__main__":
    main()
