#!/usr/bin/env python3
"""Build and run the raccd-sim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload replay_hit --seed 42 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

The benchmark binary is built from source into .bench_build/ (or
$CARGO_TARGET_DIR when set) on first use. Each workload runs in its own child
process, so peak resident memory is per workload. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["replay_hit", "miss_numa_ddr", "service_open", "paper_sweep"]
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "raccd_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    binary = build_dir / "raccd_perfbench"
    return binary if binary.exists() else None


def run_workload(binary, build_dir, workload, args):
    """Run one workload in a child process; returns (exit code, result)."""
    workdir = build_dir / f"work-{workload}-{os.getpid()}"
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", str(BENCH_DIR / "pins.txt"), "--workdir", str(workdir),
           "--trace-out", str(trace_dir / f"{workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        log(f"{workload}: timed out after {RUN_TIMEOUT_S}s")
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        log(f"{workload}: exit code {done.returncode}")
        return done.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a JSON result")
        return 1, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: malformed result keys {sorted(result)}")
        return 1, None
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if os.environ.get("RACCD_LEGACY_STRUCTURES") is not None:
        log("RACCD_LEGACY_STRUCTURES is set: that measures a different program; unset it")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(build_dir)
    if binary is None:
        return 1

    if args.workload != "all":
        code, result = run_workload(binary, build_dir, args.workload, args)
        if code != 0:
            return code
        print(json.dumps(result), flush=True)
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run_workload(binary, build_dir, workload, args)
        if code != 0:
            return code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
