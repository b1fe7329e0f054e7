#!/usr/bin/env python3
"""Validate BENCH_*.json files and re-check their gate rows.

Each file is one flat JSON object with the stamps ("benchmark",
"schema_version", "quick") and at least one metric. A gated run writes
each gate as "gate_<name>": "<key> <op> <bound>" (the bound a number or
another key) next to "pass". Every row is re-evaluated on the file's
own values; a failing row, a row naming a missing key, a "pass" that
disagrees with the rows and a missing REQUIRED gate are rejected.
`--gate ROW` adds a row for one invocation. See docs/BENCH_SCHEMA.md.

Usage: check_bench_json.py [--gate ROW]... BENCH_a.json [BENCH_b.json ...]
"""

import json
import operator
import sys

STAMP_KEYS = ("benchmark", "schema_version", "quick")
OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}
DELIVERY = ("errors", "lost", "duplicated", "verify_mismatches")

# benchmark stamp -> (schema_version, gates the file must carry).
# "{s}" expands over the file's scenario_list. Other stamps: version 2.
REQUIRED = {
    "service_throughput": (2, DELIVERY),
    "cluster_throughput": (2, DELIVERY),
    "slo": (2, tuple(f"{p}_{g}" for p in ("planned", "fifo")
                     for g in ("errors", "lost", "duplicates",
                               "verify_mismatches", "ledger",
                               "server_shed_unmeetable"))
            + ("planned_beats_fifo", "planned_shed_unmeetable",
               "fifo_shed_unmeetable")),
    "storage": (1, DELIVERY + ("cold_open_beats_synthesis", "buffer_pins",
                               "buffer_hit_rate_min",
                               "buffer_hit_rate_max")),
    "obs": (1, DELIVERY + ("responses_identical", "overhead_pct", "spans")),
    "scenarios": (1, tuple("{s}_" + g for g in DELIVERY + (
        "abandoned", "served_and_shed", "p99_ms", "restarts", "pass"))),
}


def number(data: dict, token: str):
    """The file's value for key `token`, else `token` as a literal."""
    try:
        return float(data.get(token, token))
    except (TypeError, ValueError):
        return None


def evaluate(data: dict, row) -> tuple:
    parts = str(row).split()
    if len(parts) != 3 or parts[1] not in OPS:
        return False, "malformed row"
    a, b = number(data, parts[0]), number(data, parts[2])
    if a is None or b is None:
        return False, "names a missing or non-numeric key"
    return OPS[parts[1]](a, b), f"{a:g} vs {b:g}"


def check(path: str, extra_rows=()) -> list:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: failed to parse: {e}"]
    errors = [f"{path}: missing stamp key '{k}'"
              for k in STAMP_KEYS if k not in data]
    version, required = REQUIRED.get(data.get("benchmark"), (2, ()))
    if data.get("schema_version") != version:
        errors.append(f"{path}: schema_version "
                      f"{data.get('schema_version')!r} != {version}")
    if all(k in STAMP_KEYS for k in data):
        errors.append(f"{path}: no metric keys beyond the stamps")
    rows = {k[len("gate_"):]: v for k, v in data.items()
            if k.startswith("gate_")}
    scenarios = [s for s in str(data.get("scenario_list", "")).split(",")
                 if s]
    for gate in required:
        for name in ([gate.format(s=s) for s in scenarios]
                     if "{s}" in gate else [gate]):
            if name not in rows:
                errors.append(f"{path}: missing required gate '{name}'")
    held = True
    for name, row in list(rows.items()) + [("--gate", r) for r in extra_rows]:
        ok, why = evaluate(data, row)
        if not ok:
            errors.append(f"{path}: gate {name} failed: {row} ({why})")
        held = held and (ok or name == "--gate")
    if rows and data.get("pass") != (1 if held else 0):
        errors.append(f"{path}: pass {data.get('pass')!r} disagrees with "
                      f"the gate rows")
    if not errors:
        print(f"{path}: ok ({data['benchmark']}, {len(rows)} gates)")
    return errors


def main(argv: list) -> int:
    extra_rows, paths = [], []
    args = iter(argv)
    for arg in args:
        if arg == "--gate":
            extra_rows.append(next(args, ""))
        else:
            paths.append(arg)
    if not paths:
        print("usage: check_bench_json.py [--gate ROW]... FILE...",
              file=sys.stderr)
        return 2
    errors = []
    for path in paths:
        errors.extend(check(path, extra_rows))
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
