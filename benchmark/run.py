#!/usr/bin/env python3
"""Build and run the repo benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 benchmark/run.py --selftest

The first call configures and builds benchmark/build (Release) from the
repository sources; later calls rebuild incrementally. Build output goes
to stderr, so the last stdout line is always ta_benchmark's result object.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from compare import check_result, load_spec

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"


def build(targets):
    """Configure once, then build `targets`; False on any failure."""
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(BUILD), "-j",
                str(min(4, os.cpu_count() or 1)), "--target", *targets]

    def run(cmd):
        if subprocess.run(cmd, stdout=sys.stderr).returncode == 0:
            return True
        print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
        return False

    if not (BUILD / "CMakeCache.txt").exists() and not run(configure):
        return False
    # An interrupted configure leaves a cache but no build system.
    return run(compile_) or (run(configure) and run(compile_))


def selftest():
    """C++ accounting tests, then the compare.py tests."""
    if not build(["ta_benchmark_selftest"]):
        return 1
    rc = subprocess.run([str(BUILD / "ta_benchmark_selftest")],
                        stdout=sys.stderr).returncode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    rc |= subprocess.run([sys.executable, "-m", "unittest", "discover",
                          "-s", str(HERE / "tests")], env=env).returncode
    return rc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if not build(["ta_benchmark"]):
        return 1
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    proc = subprocess.run([
        str(BUILD / "ta_benchmark"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--results", str(results),
    ], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode or 1
    # ta_benchmark's metric table must still match BENCHMARK.json.
    try:
        check_result({"trace": args.trace, "result": json.loads(lines[-1])},
                     load_spec(), "ta_benchmark result")
    except (ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
