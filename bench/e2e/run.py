#!/usr/bin/env python3
"""Runner of the end-to-end mptool benchmark (see bench/e2e/README.md).

One workload, the form a benchmark harness calls:
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
Every workload, 3 rounds each interleaved in seeded order, then one traced
run each:
  python3 bench/e2e/run.py --seed S [--seconds T] [--out FILE]
Two such result files against the bounds of BENCHMARK.json:
  python3 bench/e2e/run.py --compare A.json B.json

Without --build-dir the runner configures and builds bench/e2e in Release
into .bench_build at the repository root; with it, it builds nothing and
uses DIR/bench_e2e. Either way it refuses a bench_e2e that is not a Release
build. Metric names, units and bounds come from BENCHMARK.json. One row per
(workload, metric) goes to stdout; in the single-workload form the last line
is the JSON result. The exit status is non-zero when any output was wrong.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ROUNDS = 3  # processes per workload; host noise lands on each of them
# A single-workload run must end within 180 s; every bench_e2e process of
# one run.py invocation shares this budget (the suite form: per process).
BUDGET_S = 170
# Reported by the suite form but not in BENCHMARK.json, with their units:
# fail_ratio reads 0, and an end-to-end metric must never read 0; the p90
# drifts with the host by more than the largest bound allowed (README.md).
UNGATED = {"fail_ratio": "fraction", "latency_ms.p90": "ms"}
# End-to-end metrics that are modeled counts, so must repeat exactly.
EXACT = {"best_msgs_per_sweep", "best_bytes_per_sweep"}
# Per-layer metrics that are timings although their names do not say so;
# every other per-layer metric not named *_ms is a count that must repeat.
MEASURED_LAYER = {"engine.cpu_util", "bench.trace_overhead_pct"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and found errors)."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(build_dir):
    """Configures and builds bench_e2e; build output goes to stderr."""
    steps = [["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "bench_e2e",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_binary(binary, args, deadline=None):
    """Runs bench_e2e once and returns its JSON line with its exit status.
    The process is killed at `deadline` (time.monotonic()), by default
    BUDGET_S from now."""
    if deadline is None:
        deadline = time.monotonic() + BUDGET_S
    try:
        p = subprocess.run([str(binary)] + args, cwd=ROOT, capture_output=True,
                           text=True, timeout=max(deadline - time.monotonic(), 1))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"bench_e2e {' '.join(args)}: {e}") from e
    lines = p.stdout.strip().splitlines()
    if p.returncode == 2 or not lines:
        raise BenchError(f"bench_e2e {' '.join(args)} exited {p.returncode}: "
                         f"{p.stderr.strip()}")
    result = json.loads(lines[-1])
    if result.get("build_type") != "Release":
        raise BenchError(f"{binary} is a {result.get('build_type')} build; "
                         "timings come from Release builds only")
    result["exit"] = p.returncode
    sys.stderr.writelines(f"bench_e2e: {e}\n" for e in result["errors"])
    return result


def run_round(binary, workload, seed, seconds, rnd, deadline=None):
    args = ["--workload", workload, "--seed", str(seed), "--round", str(rnd),
            "--seconds", repr(seconds / ROUNDS)]
    if rnd == 0:
        args.append("--oracle")  # the untimed placement pass, once
    return run_binary(binary, args, deadline)


def run_traced(binary, workload, seed, seconds, trace_file, deadline=None):
    return run_binary(binary, ["--workload", workload, "--seed", str(seed),
                               "--seconds", repr(seconds), "--trace",
                               str(trace_file)], deadline)


def end_to_end(rounds):
    """End-to-end metrics of one workload from its pooled rounds."""
    latency = [x for r in rounds for x in r["latency_ms"]]
    modeled = {(r["best_msgs_per_sweep"], r["best_bytes_per_sweep"])
               for r in rounds}
    if len(modeled) != 1:
        raise BenchError(f"rounds disagree on modeled traffic: {modeled}")
    msgs, size = modeled.pop()
    return {
        "latency_ms.p50": statistics.median(latency),
        "latency_ms.p90": statistics.quantiles(latency, n=10)[-1],
        "throughput_rps": len(latency) / sum(r["wall_s"] for r in rounds),
        "best_msgs_per_sweep": msgs,
        "best_bytes_per_sweep": size,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(x for r in rounds for x in r["setup_s"]),
    }


def correct(results):
    return all(r["exit"] == 0 and r["failed"] == 0 for r in results)


def rows(workload, metrics, units):
    for name, value in metrics.items():
        print(f"{workload:<18} {name:<34} {value:>16.6g} {units[name]}")


def select(spec, section, values):
    """`values` restricted to, and checked against, a BENCHMARK.json list."""
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"bench_e2e reported no {', '.join(missing)}")
    return {m["name"]: values[m["name"]] for m in spec[section]}


def single(args, spec, binary, build_dir):
    """The single-workload form: one JSON result as the last line."""
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        results = [run_traced(binary, args.workload, args.seed, args.seconds,
                              build_dir / f"trace-{args.workload}.json",
                              deadline)]
        metrics = select(spec, section, results[0]["metrics"])
    else:
        results = [run_round(binary, args.workload, args.seed, args.seconds, r,
                             deadline)
                   for r in range(ROUNDS)]
        metrics = select(spec, section, end_to_end(results))
    rows(args.workload, metrics, units)
    ok = correct(results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if ok else 1


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def suite(args, spec, binary, build_dir):
    """Every workload: interleaved untimed-set-up rounds, then traced runs."""
    names = [w["name"] for w in spec["workloads"]]
    schedule = [(w, r) for w in names for r in range(ROUNDS)]
    rng = random.Random(args.seed)
    rng.shuffle(schedule)
    rounds = {w: [None] * ROUNDS for w in names}
    for w, r in schedule:
        rounds[w][r] = run_round(binary, w, args.seed, args.seconds, r)
    traced = {}
    for w in rng.sample(names, len(names)):
        traced[w] = run_traced(binary, w, args.seed, args.seconds,
                               build_dir / f"trace-{w}.json")
    first = rounds[names[0]][0]
    out = {"meta": {"nproc": os.cpu_count(), "build_type": first["build_type"],
                    "compiler": first["compiler"], "commit": git_commit(),
                    "seed": args.seed, "seconds": args.seconds,
                    "rounds": ROUNDS},
           "workloads": {}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(UNGATED)
    ok = True
    for w in names:
        results = rounds[w] + [traced[w]]
        pooled = end_to_end(rounds[w])
        e2e = select(spec, "end_to_end", pooled)
        layers = select(spec, "per_layer", traced[w]["metrics"])
        ungated = {"fail_ratio": sum(r["failed"] for r in results)
                                 / sum(r["attempted"] for r in results),
                   "latency_ms.p90": pooled["latency_ms.p90"]}
        good = correct(results)
        ok = ok and good
        out["workloads"][w] = {
            "correct": good,
            "end_to_end": e2e,
            "ungated": ungated,
            "rounds": [end_to_end([r]) for r in rounds[w]],
            "per_layer": layers,
        }
        rows(w, e2e, units)
        rows(w, ungated, units)
        rows(w, layers, units)
    print(json.dumps(out["meta"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if ok else 1


def spread(values):
    """Interquartile distance as a share of the median."""
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def measured(name):
    """Whether a per-layer metric is a measurement rather than an exact count."""
    return name.endswith(("_ms", "_ms.share")) or name in MEASURED_LAYER


def compare(path_a, path_b, spec):
    """B against A, one row per workload: each end-to-end metric's change and
    verdict, then whether every per-layer count repeated exactly."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    bad = False
    print(f"comparing {path_b} (commit {b['meta']['commit'][:12]}) against "
          f"{path_a} (commit {a['meta']['commit'][:12]})")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            print(f"{w:<18} missing from {path_b}")
            bad = True
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        cells = []
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            change = (vb - va) / va
            worse = change if m["better"] == "lower" else -change
            noise = max(spread([r[name] for r in wa["rounds"]]),
                        spread([r[name] for r in wb["rounds"]]))
            if name in EXACT:
                verdict = "identical" if va == vb else "CHANGED"
            elif noise > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            else:
                verdict = "ok"
            bad = bad or verdict in ("CHANGED", "REGRESSED")
            cells.append(f"{name} {change:+.1%} {verdict}")
        va, vb = wa["ungated"]["latency_ms.p90"], wb["ungated"]["latency_ms.p90"]
        cells.append(f"latency_ms.p90 {(vb - va) / va:+.1%} ungated")
        moved = [m["name"] for m in spec["per_layer"] if not measured(m["name"])
                 and wa["per_layer"][m["name"]] != wb["per_layer"][m["name"]]]
        cells.append("counts CHANGED: " + ", ".join(moved) if moved
                     else "counts identical")
        if not wb["correct"]:
            cells.append("OUTPUTS WRONG")
        bad = bad or bool(moved) or not wb["correct"]
        print(f"{w:<18} " + " | ".join(cells))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir", type=Path)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"one of {', '.join(names)}")
        build_dir = args.build_dir
        if build_dir is None:
            build_dir = ROOT / ".bench_build"
            build(build_dir)
        binary = build_dir / "bench_e2e"
        if args.workload is not None:
            return single(args, spec, binary, build_dir)
        return suite(args, spec, binary, build_dir)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
