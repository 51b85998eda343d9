#!/usr/bin/env python3
"""Correctness smoke over the real-stack benchmark (e2ebench/).

Usage: e2ebench_smoke.py [--seconds S] WORKLOAD [WORKLOAD ...]

Runs `python3 e2ebench/run.py --workload W --seconds S --trace 1` for each
workload and fails unless the JSON object on the last line of its output
says "correct": true with "failed": 0 — every call answered, and every
reply matching what the benchmark sent. It is a correctness gate only:
the timings the runs print are not checked against any band.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
           "--workload", workload, "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return f"run.py exited {proc.returncode}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line is not a JSON object"
    if result.get("correct") is not True:
        return "correct is not true"
    if result.get("failed") != 0:
        return f"{result.get('failed')} of {result.get('attempted')} calls failed"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    failures = 0
    for workload in args.workloads:
        problem = run(workload, args.seconds)
        status = "ok" if problem is None else f"FAIL: {problem}"
        print(f"e2ebench smoke {workload}: {status}", file=sys.stderr)
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
