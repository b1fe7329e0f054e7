#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise run-to-run spread.

    python3 benchmark/calibrate.py --out DIR [--runs 10] [--first-seed 1]
    python3 benchmark/calibrate.py --out DIR --summary-only
                                   [--reference FILE]

Each run is `run.py --workload W --seed S --seconds <run_seconds>`, for
every workload and seed; its result object is saved as
DIR/<workload>_seed<S>.json, the input compare.py reads. The summary prints, per workload and end-to-end
metric, the median, quartiles and spread (interquartile range over the
median, from statistics.quantiles(values, n=4)) next to the metric's
bound; a spread above a third of the bound is flagged. --reference
writes that summary as JSON (benchmark/reference/ holds the committed
one).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from compare import load_set, load_spec, quartiles, spread

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(runs, spec):
    """workload -> metric -> {median, q1, q3, spread, unit, bound, n}."""
    out = {}
    for w in spec["workloads"]:
        docs = runs.get(w["name"], [])
        if not docs:
            continue
        out[w["name"]] = {}
        for m in spec["end_to_end"]:
            values = [d["result"]["metrics"][m["name"]]["value"]
                      for d in docs]
            q1, med, q3 = quartiles(values)
            out[w["name"]][m["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": spread(values), "unit": m["unit"],
                "bound": m["bound"], "runs": len(values)}
    return out


def main():
    ap = argparse.ArgumentParser(description="Calibrate the benchmark.")
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--summary-only", action="store_true")
    ap.add_argument("--reference")
    args = ap.parse_args()
    spec = load_spec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if not args.summary_only:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for w in spec["workloads"]:
                name = w["name"]
                result = run_once(name, seed, spec["run_seconds"])
                path = out / f"{name}_seed{seed}.json"
                path.write_text(json.dumps(
                    {"workload": name, "seed": seed, "trace": 0,
                     "result": result}, indent=1) + "\n")
                print(f"{name} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in
                                  result["metrics"].items()), flush=True)
    summary = summarize(load_set(out, spec), spec)
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{workload:<14} {name:<16} median {s['median']:<10.4g} "
                  f"[{s['q1']:.4g}, {s['q3']:.4g}] spread "
                  f"{s['spread']:.4f} bound {s['bound']:.3f}{flag}")
    if args.reference:
        Path(args.reference).write_text(json.dumps(
            {"nproc": os.cpu_count(), "run_seconds": spec["run_seconds"],
             "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
