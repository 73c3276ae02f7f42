"""Alternated pairs of benchmark runs in two checkouts, summed up as JSON.

Runs ``perfbench/run.py --workload W --seed S --seconds N --trace 0`` from
the root of a parent checkout and of a changed one, PAIRS times each: pair
i runs the parent first when i is even and the change first when it is
odd, and all runs are sequential. ``--workload`` may be given more than
once; pair i of every workload runs before pair i + 1 of any. Prints one
JSON object with an entry per workload: per pair, each side's end-to-end
metrics (those of ``BENCHMARK.json``) and its attempted and failed
operations; per metric and side, the median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``); the change's median
over the parent's; the number of pairs in which the change was better, in
the metric's direction; whether the gap between the medians is wider than
the parent's interquartile range; and the no-regression verdict:
``within_bound``, the change's median is no worse than the parent's by
more than the metric's ``bound`` (a fraction of the parent's median), and
``unresolved``, the parent's interquartile range exceeds that bound of its
median while not every run of the change reads better than every run of
the parent. A workload's
``no_regression`` holds when every metric is within its bound, none is
unresolved and no operation of the change failed. Progress goes to
standard error.

Before the first pair and after the last, ``host_parallelism`` times two
forked copies of a fixed pure-Python loop run at once against one copy,
and the JSON holds the ratio of the two wall times: about 1 means a free
second core, about 2 means none. A run that forks workers reads faster or
slower with that number, so read its pairs beside it.

Usage:
    python scripts/ab_pairs.py --parent DIR --change DIR \\
        --workload verify-spaceform-sweep --workload report-bundled \\
        --pairs 10 --seed 42 --seconds 40
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _end_to_end() -> dict:
    """Each end-to-end metric of ``BENCHMARK.json`` by name, with its
    ``better`` ("lower" or "higher") and ``bound``."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in declared["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``checkout``: its metric values, attempted and
    failed operations, from the JSON of its last line of output."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "correct": summary["correct"],
    }


def _spin(loops: int) -> int:
    total = 0
    for i in range(loops):
        total += i
    return total


def _forked_wall(copies: int, loops: int) -> float:
    """Wall time of ``copies`` forked processes, each running ``_spin``
    at once, until all are reaped."""
    start = time.perf_counter()
    pids = []
    try:
        for _ in range(copies):
            pid = os.fork()
            if pid == 0:
                try:
                    _spin(loops)
                finally:
                    os._exit(0)
            pids.append(pid)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    return time.perf_counter() - start


def host_parallelism(loops: int = 3_000_000) -> float:
    """Wall time of two forked copies of a fixed loop over that of one: about
    1 when a second core is free, about 2 when none is."""
    return _forked_wall(2, loops) / _forked_wall(1, loops)


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, metrics) -> dict:
    """Medians, quartiles, ratio, wins, gap and the no-regression verdict of
    each metric over ``pairs`` of ``{"parent": run, "change": run}``;
    ``metrics`` maps each name to its ``better`` and ``bound``."""
    out = {}
    for name, spec in metrics.items():
        better, bound = spec["better"], spec["bound"]
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if better == "lower" else -1
        a, b = _spread(parent), _spread(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
        out[name] = {
            "better": better,
            "bound": bound,
            "parent": a,
            "change": b,
            "ratio": b["median"] / a["median"] if a["median"] else None,
            "change_better_pairs": wins,
            "gap_above_parent_iqr": sign * (a["median"] - b["median"]) > a["iqr"],
            "within_bound": sign * (b["median"] - a["median"]) <= bound * abs(a["median"]),
            "unresolved": a["iqr"] > bound * abs(a["median"]) and not every_run_better,
        }
    return out


def no_regression(summary, failed_ops: int) -> bool:
    """Every metric of ``summarize`` within its bound and resolved, and no
    failed operation on the change's side."""
    return failed_ops == 0 and all(
        m["within_bound"] and not m["unresolved"] for m in summary.values()
    )


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True, action="append", help="repeatable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    metrics = _end_to_end()
    parallelism = {"before": host_parallelism()}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = {workload: [] for workload in args.workload}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload, done in pairs.items():
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, args.seed, args.seconds)
            done.append(pair)
            wall = {side: pair[side]["metrics"].get("wall_s") for side in order}
            print(f"{workload} pair {i + 1}/{args.pairs}: wall_s {wall}", file=sys.stderr,
                  flush=True)
    parallelism["after"] = host_parallelism()
    result = {"seed": args.seed, "seconds": args.seconds, "host_parallelism": parallelism,
              "workloads": {}}
    for workload, done in pairs.items():
        failed = {side: sum(p[side]["failed"] for p in done) for side in sides}
        summary = summarize(done, metrics)
        result["workloads"][workload] = {
            "pairs": done,
            "failed": failed,
            "summary": summary,
            "no_regression": no_regression(summary, failed["change"]),
        }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
