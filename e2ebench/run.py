#!/usr/bin/env python3
"""Builds and runs the real-stack SOAP-bin / SOAP-binQ benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                            [--trace 0|1]

The first run configures and builds e2ebench/ (the repository's libraries
from src/ plus the benchmark's own sources) in $CARGO_TARGET_DIR, or in
.bench_build/ when that is unset; later runs only rebuild what changed.
Build output goes to standard error.

One workload prints its metrics, one per line with their units, and as
the last line of standard output one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run (spans are written to
<build dir>/spans/<workload>.tsv). --workload all (the default) runs
every workload in turn, each in its own process, and ends with one JSON
object whose metrics are named <workload>.<metric>.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bin_small", "bin_bulk", "soap_xml", "binq_imaging"]
# A run measures --seconds and sets up five stacks; the limit only stops a
# hung run.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "client.h")):
        sys.exit("e2ebench: no repository sources next to the benchmark "
                 "(expected src/core/client.h)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "e2ebench")


def run_one(exe, bdir, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, workload + ".tsv")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("e2ebench: build failed: %s" % e)

    if args.workload != "all":
        code, _ = run_one(exe, bdir, args.workload, args.seed, args.seconds,
                          args.trace)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        print("== %s" % w, flush=True)
        code, result = run_one(exe, bdir, w, args.seed, args.seconds, args.trace)
        if result is None:
            sys.exit("e2ebench: workload %s exited with %d" % (w, code))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
