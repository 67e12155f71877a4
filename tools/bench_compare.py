#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a committed baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.25]

Fails (exit 1) if any benchmark present in both files regressed by more
than the threshold on its median wall time, if the current-results file is
missing or unreadable, or if a baselined benchmark is absent from the
current run — a bench binary that silently stops executing must not pass
the gate forever. Retiring a benchmark therefore means updating the
committed baseline in the same commit. Benchmarks that appear only in the
current run are reported but never fail, so adding one does not require
touching the baseline. An empty baseline (``[]`` or no ``benchmarks`` key)
passes trivially — that is the bootstrap state before the first baseline
is recorded.

Both files' ``context.num_cpus`` and ``context.library_build_type`` are
printed, with a non-fatal ``WARNING: context differs`` line when they
differ: timings taken on another core count or against another build of
the benchmark library compare poorly, but a mismatch alone does not fail
the gate.

Median selection: if the run used ``--benchmark_repetitions``, the
``*_median`` aggregate rows are used; otherwise the median over the plain
iteration rows with the same name (usually exactly one) is taken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


_CONTEXT_KEYS = ("num_cpus", "library_build_type")


def load_run(path: str) -> tuple[dict[str, float], dict[str, object]]:
    """Return (benchmark name -> median real time in ns, context fields)."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    context = data.get("context", {}) if isinstance(data, dict) else {}
    if not isinstance(context, dict):
        context = {}
    rows = data.get("benchmarks", []) if isinstance(data, dict) else data
    medians: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    for row in rows:
        name = row.get("name", "")
        if not name:
            continue
        try:
            time_ns = float(row["real_time"]) * _UNIT_NS[row.get("time_unit", "ns")]
        except (KeyError, TypeError, ValueError):
            continue
        if row.get("run_type") == "aggregate":
            # Keep only the median aggregate; it wins over raw samples.
            if row.get("aggregate_name") == "median" or name.endswith("_median"):
                medians[name.removesuffix("_median")] = time_ns
        else:
            samples.setdefault(name, []).append(time_ns)
    for name, values in samples.items():
        medians.setdefault(name, statistics.median(values))
    return medians, {k: context.get(k) for k in _CONTEXT_KEYS}


def fmt_context(context: dict[str, object]) -> str:
    return " ".join(f"{k}={context[k] if context[k] is not None else '?'}"
                    for k in _CONTEXT_KEYS)


def fmt(ns: float) -> str:
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional slowdown (default 0.25 = +25%%)")
    args = ap.parse_args()

    try:
        base, base_ctx = load_run(args.baseline)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot read baseline {args.baseline}: {e}")
        return 1
    try:
        cur, cur_ctx = load_run(args.current)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot read current results {args.current}: {e}")
        return 1

    print(f"baseline context: {fmt_context(base_ctx)}")
    print(f"current context:  {fmt_context(cur_ctx)}")
    if base_ctx != cur_ctx:
        print("WARNING: context differs from the baseline; the timings may "
              "not be comparable")

    if not base:
        print(f"baseline {args.baseline} is empty; nothing to compare "
              "(bootstrap pass)")
        return 0

    regressions = []
    # Width over BOTH name sets: the base-only rows printed after the main
    # loop use the same column, so a long retired benchmark name must not
    # break the alignment (or, with an empty current run, the generator).
    width = max((len(n) for n in set(cur) | set(base)), default=10)
    for name in sorted(cur):
        if name not in base:
            print(f"  {name:<{width}}  {fmt(cur[name]):>10}  (new, no baseline)")
            continue
        ratio = cur[name] / base[name] if base[name] > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + args.threshold:
            marker = "  << REGRESSION"
            regressions.append((name, ratio))
        print(f"  {name:<{width}}  {fmt(base[name]):>10} -> {fmt(cur[name]):>10}"
              f"  ({ratio:5.2f}x){marker}")
    missing = sorted(set(base) - set(cur))
    for name in missing:
        print(f"  {name:<{width}}  << MISSING from current run")

    failed = False
    if regressions:
        failed = True
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more than "
              f"{args.threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
    if missing:
        failed = True
        print(f"\nFAIL: {len(missing)} baselined benchmark(s) did not run; "
              "update the committed baseline if they were retired "
              "deliberately:")
        for name in missing:
            print(f"  {name}")
    if failed:
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"({len(set(base) & set(cur))} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
