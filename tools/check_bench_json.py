#!/usr/bin/env python3
"""Validate the machine-readable bench report schema and diff baselines.

Every bench binary accepts `--json <path>` and writes one object:

    {
      "bench": "<name>",                  # non-empty string
      "config": { ... },                  # object (may be empty)
      "rows": [ { ... }, ... ],           # list of objects
      "wall_seconds": 1.23,               # non-negative number
      "solver_stats": {                   # object with a source marker
        "source": "bench" | "global-metrics",
        "<stat>": <number >= 0>, ...
      }
    }

Usage:
    check_bench_json.py report.json [report2.json ...]
    check_bench_json.py --baseline BASE.json [--min-ratio R] report.json

Plain mode validates each report against the schema above.

Baseline mode additionally diffs one report against a committed baseline
report (e.g. BENCH_solver.json). Rows are matched by their "config" value;
for each matched pair the checks are:

  * "fingerprint", when present in the baseline row, must be identical —
    a throughput win that changes answers is a bug, not a win;
  * "props_per_sec" and "entries_per_sec", when present in both rows,
    must be at least --min-ratio times the baseline value (default 0.85,
    i.e. tolerate 15% machine noise but fail on real regressions). The
    ratio gate is skipped — fingerprint and coverage checks are not —
    when the report's config carries "underprovisioned": true (the bench
    detected fewer cores than its parallelism needs, so its throughput
    says nothing about the code).

Rows present only in the baseline fail the check (a silently dropped
config is a regression in coverage); rows present only in the current
report are reported but pass (new configs are fine).

Baseline mode also compares the solver backend identity: the report's
"config.backend" / "config.members" (absent = "single" / 1, the values
every report implied before the portfolio backend existed) must equal
the baseline's, so a portfolio run can never silently pollute a
baseline diff; the numbers are not comparable across backends. Any row
that records "identical_signal_sets": false fails schema validation
outright.

Exits non-zero with a per-file message on the first violation.
No third-party dependencies — CI runs it with a stock python3.
"""

import argparse
import json
import math
import numbers
import sys


class SchemaError(Exception):
    pass


class BaselineError(Exception):
    pass


def check_report(data):
    if not isinstance(data, dict):
        raise SchemaError("top level is not an object")

    required = {"bench", "config", "rows", "wall_seconds", "solver_stats"}
    missing = required - data.keys()
    if missing:
        raise SchemaError(f"missing keys: {sorted(missing)}")

    if not isinstance(data["bench"], str) or not data["bench"]:
        raise SchemaError("'bench' must be a non-empty string")

    if not isinstance(data["config"], dict):
        raise SchemaError("'config' must be an object")

    if not isinstance(data["rows"], list):
        raise SchemaError("'rows' must be a list")
    for i, row in enumerate(data["rows"]):
        if not isinstance(row, dict):
            raise SchemaError(f"rows[{i}] is not an object")
        if not row:
            raise SchemaError(f"rows[{i}] is empty")
        # Benches that differentially check answers (bench_incremental)
        # record the verdict per row; a false verdict is a correctness
        # bug no throughput number can excuse.
        if row.get("identical_signal_sets") is False:
            raise SchemaError(
                f"rows[{i}] ({row_key(row, i)!r}): identical_signal_sets "
                "is false — the compared paths reconstructed different "
                "signal sets")

    wall = data["wall_seconds"]
    if not isinstance(wall, numbers.Real) or isinstance(wall, bool):
        raise SchemaError("'wall_seconds' must be a number")
    if wall < 0:
        raise SchemaError(f"'wall_seconds' is negative: {wall}")

    stats = data["solver_stats"]
    if not isinstance(stats, dict):
        raise SchemaError("'solver_stats' must be an object")
    source = stats.get("source")
    if source not in ("bench", "global-metrics"):
        raise SchemaError(f"solver_stats.source is {source!r}, expected "
                          "'bench' or 'global-metrics'")
    for key, value in stats.items():
        if key == "source":
            continue
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise SchemaError(f"solver_stats[{key!r}] is not a number")
        if not math.isfinite(value) or value < 0:
            raise SchemaError(f"solver_stats[{key!r}] is not a finite "
                              f"non-negative number: {value}")


def row_key(row, index):
    key = row.get("config")
    if isinstance(key, str) and key:
        return key
    return f"<row {index}>"


def backend_identity(report):
    """(backend, members) of a report; absent keys mean the single
    solver — what every report implied before the portfolio existed."""
    config = report.get("config", {})
    return (config.get("backend", "single"), config.get("members", 1))


def check_baseline(base, current, min_ratio):
    if backend_identity(base) != backend_identity(current):
        raise BaselineError(
            f"identity mismatch: report ran {backend_identity(current)} but "
            f"baseline is {backend_identity(base)} — numbers are not "
            "comparable across backends")

    base_rows = {row_key(r, i): r for i, r in enumerate(base["rows"])}
    cur_rows = {row_key(r, i): r for i, r in enumerate(current["rows"])}

    missing = sorted(base_rows.keys() - cur_rows.keys())
    if missing:
        raise BaselineError(f"baseline rows missing from report: {missing}")

    skip_ratio = bool(current.get("config", {}).get("underprovisioned"))
    lines = []
    if skip_ratio:
        lines.append("  report is underprovisioned (fewer cores than the "
                     "bench's parallelism): ratio gate skipped")
    for key in sorted(base_rows):
        b, c = base_rows[key], cur_rows[key]

        base_fp = b.get("fingerprint")
        if base_fp is not None and c.get("fingerprint") != base_fp:
            raise BaselineError(
                f"row {key!r}: fingerprint {c.get('fingerprint')!r} != "
                f"baseline {base_fp!r} (answers changed)")

        for field in ("props_per_sec", "entries_per_sec"):
            base_rate = b.get(field)
            cur_rate = c.get(field)
            if not base_rate or not isinstance(cur_rate, numbers.Real):
                continue
            ratio = cur_rate / base_rate
            lines.append(f"  {key}: {base_rate:,.0f} -> {cur_rate:,.0f} "
                         f"{field} (x{ratio:.2f})")
            if skip_ratio:
                continue
            if ratio < min_ratio:
                raise BaselineError(
                    f"row {key!r}: {field} regressed to "
                    f"{ratio:.2f}x of baseline (< {min_ratio:.2f}x): "
                    f"{base_rate:,.0f} -> {cur_rate:,.0f}")

    extra = sorted(cur_rows.keys() - base_rows.keys())
    if extra:
        lines.append(f"  new rows (not in baseline): {extra}")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate bench JSON reports; optionally diff a "
                    "baseline.", add_help=True)
    parser.add_argument("reports", nargs="+", metavar="report.json")
    parser.add_argument("--baseline", metavar="BASE.json",
                        help="committed baseline report to diff against")
    parser.add_argument("--min-ratio", type=float, default=0.85,
                        help="minimum allowed props_per_sec ratio vs the "
                             "baseline (default: %(default)s)")
    args = parser.parse_args(argv[1:])

    baseline = None
    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
            check_report(baseline)
        except (OSError, json.JSONDecodeError, SchemaError) as err:
            print(f"{args.baseline}: FAIL: {err}", file=sys.stderr)
            return 1

    failed = False
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            check_report(data)
            diff_lines = None
            if baseline is not None:
                diff_lines = check_baseline(baseline, data, args.min_ratio)
        except (OSError, json.JSONDecodeError, SchemaError,
                BaselineError) as err:
            print(f"{path}: FAIL: {err}", file=sys.stderr)
            failed = True
            continue
        print(f"{path}: OK ({data['bench']}, {len(data['rows'])} rows, "
              f"stats from {data['solver_stats']['source']})")
        if diff_lines:
            print(f"  vs baseline {args.baseline} "
                  f"(min ratio {args.min_ratio:.2f}):")
            print("\n".join(diff_lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
