#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py A B

A and B are directories of result files written by calibrate.py (one
JSON file per run: workload, seed, trace flag and ta_benchmark's result
object). A is the parent commit, B the change. For every workload and
end-to-end metric it prints each side's median and quartiles, the
metric's bound from BENCHMARK.json and a verdict:

  worse       B's median is worse than A's by more than the bound
  unresolved  the run-to-run spread (interquartile range over median,
              either side) exceeds the bound, and not every B run beats
              every A run
  better      B wins at least 9 of every 10 seed-paired runs (ties
              count for neither; needs >= 10 pairs) and the medians
              differ by more than A's interquartile range
  unchanged   otherwise

Result files whose metric names or units differ from BENCHMARK.json are
rejected. Exit status: 0 when nothing is worse, 1 when something is, 2
on invalid input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Interquartile range over the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def check_result(doc, spec, where):
    """Raise ValueError unless the run's metrics match BENCHMARK.json."""
    result = doc["result"]
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"{where}: result lacks '{key}'")
    defs = spec["per_layer" if doc["trace"] else "end_to_end"]
    want = {m["name"]: m["unit"] for m in defs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise ValueError(f"{where}: metrics differ from BENCHMARK.json "
                         f"(missing {missing}, extra {extra}, "
                         f"unit mismatch {units})")


def load_set(directory, spec):
    """workload -> list of run documents (untraced runs only), by seed."""
    runs = {}
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        raise ValueError(f"{directory}: no result files")
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        check_result(doc, spec, path)
        if not doc["trace"]:
            runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["seed"])
    return runs


def verdict(a, b, bound, lower_is_better, pairs=None):
    """Verdict for one metric; a and b are the per-run values."""
    sign = 1.0 if lower_is_better else -1.0
    q1_a, med_a, q3_a = quartiles(a)
    _, med_b, _ = quartiles(b)
    # Positive = B worse, as a share of A's median.
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if worse_by > bound:
        return "worse"
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved"
    if pairs and len(pairs) >= 10:
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
            return "better"
    return "unchanged"


def compare(set_a, set_b, spec):
    """Rows of (workload, metric, unit, a stats, b stats, bound, verdict)
    plus per-workload failure counts."""
    rows, failures = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        docs_a, docs_b = set_a.get(workload), set_b.get(workload)
        if not docs_a or not docs_b:
            continue
        failures.append((workload,
                         sum(d["result"]["failed"] for d in docs_a),
                         sum(d["result"]["failed"] for d in docs_b)))
        by_seed_b = {d["seed"]: d for d in docs_b}
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [d["result"]["metrics"][name]["value"] for d in docs_a]
            b = [d["result"]["metrics"][name]["value"] for d in docs_b]
            pairs = [(d["result"]["metrics"][name]["value"],
                      by_seed_b[d["seed"]]["result"]["metrics"][name]
                      ["value"])
                     for d in docs_a if d["seed"] in by_seed_b]
            rows.append((workload, name, m["unit"], quartiles(a), len(a),
                         quartiles(b), len(b), m["bound"],
                         verdict(a, b, m["bound"], m["better"] == "lower",
                                 pairs)))
    return rows, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description="Compare two result sets.")
    ap.add_argument("a", help="parent result directory")
    ap.add_argument("b", help="change result directory")
    args = ap.parse_args(argv)
    spec = load_spec()
    try:
        set_a, set_b = load_set(args.a, spec), load_set(args.b, spec)
    except (ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    rows, failures = compare(set_a, set_b, spec)
    print(f"{'workload':<14} {'metric':<16} {'unit':<9} "
          f"{'A median [q1, q3] (n)':<34} {'B median [q1, q3] (n)':<34} "
          f"{'bound':>6}  verdict")
    for wl, name, unit, qa, na, qb, nb, bound, v in rows:
        fmt = lambda q, n: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] ({n})"
        print(f"{wl:<14} {name:<16} {unit:<9} {fmt(qa, na):<34} "
              f"{fmt(qb, nb):<34} {bound:>6.3f}  {v}")
    for wl, fa, fb in failures:
        print(f"{wl}: failed operations A={fa} B={fb}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
