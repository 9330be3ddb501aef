#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload city-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The benchmark program is built under .bench_build/ (CMake, from perfbench/ and
the library sources in src/). Its output is passed through; the last line is
one JSON object {"correct", "attempted", "failed", "metrics"}. This script
checks that object against BENCHMARK.json -- every end-to-end metric with
--trace 0, every per-layer metric with --trace 1, each with its unit -- and
exits non-zero when the build fails, an output check fails or a metric is
missing. --self-test runs every workload at toy size in both modes and
applies the same checks, plus that no end-to-end metric reads zero.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec


def build():
    """Configures and builds the benchmark program; returns False on any failure."""
    if not (ROOT / "src" / "algo" / "scheduler.h").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def git_rev():
    """HEAD of the checkout when it is a git work tree, read without
    leaving the checkout; 'unknown' otherwise."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="utf-8").strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            if ref.is_file():
                return ref.read_text(encoding="utf-8").strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + text[5:]):
                    return line.split()[0]
            return "unknown"
        return text or "unknown"
    except OSError:
        return "unknown"


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, spec, trace):
    """Problems with one result object, as a list of strings."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result line does not hold exactly " + ", ".join(sorted(RESULT_KEYS))]
    if result["correct"] is not True:
        problems.append("the program's own output checks failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append(f"{result['failed']} operations failed")
    metrics = result["metrics"]
    want = expected_metrics(spec, trace)
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"metric {name} missing")
        elif got.get("unit") != unit:
            problems.append(f"metric {name} has unit {got.get('unit')}, not {unit}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
        elif not trace and got["value"] == 0:
            problems.append(f"end-to-end metric {name} reads 0")
    for name in metrics:
        if name not in want:
            problems.append(f"metric {name} is not named in BENCHMARK.json")
    return problems


def run_once(spec, workload, seed, seconds, trace, toy=False, echo=True):
    """Runs the benchmark program once; returns (result line or None, problems)."""
    work_dir = BUILD_ROOT / f"work-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work_dir), "--git-rev", git_rev()]
    if toy:
        cmd.append("--toy")
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{workload} did not finish within {RUN_TIMEOUT_S} s"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None, [f"{workload} printed no result (exit code {proc.returncode})"]
    problems = check_result(result, spec, trace)
    if proc.returncode != 0 and not problems:
        problems.append(f"exit code {proc.returncode}")
    if problems:
        result["correct"] = False
        return json.dumps(result), problems
    return lines[-1], problems


def self_test(spec):
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            _, problems = run_once(spec, workload, 1, 1, trace, toy=True, echo=False)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"self-test {workload} trace={int(trace)}: {status}")
            failures += bool(problems)
    print(f"self-test: {'passed' if failures == 0 else f'{failures} case(s) failed'}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "BENCHMARK.json").is_file():
        log(f"no BENCHMARK.json at {ROOT}")
        return 2
    spec = load_spec()
    if not build():
        return 1
    if args.self_test:
        return self_test(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {', '.join(names)}")
        return 2
    result, problems = run_once(spec, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    for problem in problems:
        log("check failed: " + problem)
    if result is None:
        return 1
    print(result, flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
