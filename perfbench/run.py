"""Benchmark of oneill-lab, driven through its CLI entry point.

    python3 perfbench/run.py --workload report-bundled --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Run from the root of a checkout. Each run starts fresh single-threaded child
interpreters (BLAS and OpenMP pools pinned to one thread): several set-up
probes, whose median start-to-ready time is ``setup_s``, and one work child
that runs passes of the workload through ``oneill_lab.cli.main`` for
``--seconds`` and checks every report (see ``workloads.py`` and
``compare.py``). ``--trace 1`` reports the per-layer metrics instead (see
``spans.py``) and writes the recorded spans under ``.bench_out/traces/``.

End-to-end metrics, tracing off:

- ``setup_s``: wall time from starting a child interpreter until
  ``oneill_lab.cli`` is imported and every model of the workload resolved,
  scaled to nominal machine speed; the median of several such probes.
- ``wall_s``: time of one pass, from the start of its first CLI run until
  its last report is rendered and checked, averaged over the run's passes
  and scaled to nominal machine speed (see ``calibrate.py``); the unscaled
  mean is printed beside it.
- ``points_per_s``: admissible sample points of a pass over ``wall_s``.
- ``peak_rss_mb``: peak resident memory of the work child.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
``(model, command)`` CLI run; ``failed`` counts those that raised, gave the
wrong exit code, or wrote a report that failed the check. Metric names and
units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# Least-spread exponent for scaling set-up probes by the kernel's speed: over
# 820 probes in 4 minutes on a loaded 2-core x86-64 VM, the medians of nine
# consecutive probes spread 34% (interquartile range over median) unscaled,
# 16% at exponent 1 and 6% at 0.6-0.8.
SETUP_EXPONENT = 0.7
# A run must end within 180 s; the work child gets what is left after the
# probes, less a margin for the parent's own start and exit.
RUN_LIMIT_S = 170.0
OUT_DIR = ROOT / ".bench_out"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        env[var] = "1"
    return env


def _child(args, timeout):
    """Run child.py to completion; returns its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {args[0]} printed nothing:\n{proc.stderr[-2000:]}")
    return lines[-1]


def measure_setup(workload: str, deadline: float) -> float:
    """Median start-to-ready time of the set-up probes, each scaled by the
    calibration kernel timed right before it.

    Process start and imports slow down less than the kernel when the host
    is loaded, so the kernel's speed enters with the exponent
    ``SETUP_EXPONENT`` (see ``calibrate.scaled``)."""
    samples = []
    for _ in range(SETUP_PROBES):
        kernel_s = calibrate.kernel_seconds()
        start = time.monotonic()
        ready = float(_child(["setup", "--workload", workload], deadline - start))
        samples.append(calibrate.scaled(ready - start, kernel_s, SETUP_EXPONENT))
    return statistics.median(samples)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    setup_s = None if trace else measure_setup(workload, deadline)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        line = _child(
            [
                "work",
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--out-dir", str(out_dir),
                "--trace-file", str(OUT_DIR / "traces" / f"{workload}-seed{seed}.json"),
            ],
            deadline - time.monotonic(),
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = json.loads(line)
    if setup_s is not None:
        result["metrics"]["setup_s"] = setup_s
    return result


def _declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _with_units(workload, metrics, declared):
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {missing}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "oneill_lab" / "cli.py").is_file():
        print(f"error: no oneill_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        metrics = _with_units(name, result["metrics"], declared)
        print(
            f"# {name}: seed={args.seed} passes={result['passes']} "
            f"attempted={result['attempted']} runs_failed={result['failed']} "
            f"correct={str(result['correct']).lower()}"
        )
        for metric, m in metrics.items():
            print(f"{name:24s} {metric:46s} {m['value']:>14.6g} {m['unit']}")
        for metric in sorted(set(result["metrics"]) - set(metrics)):
            print(f"{name:24s} {metric:46s} {result['metrics'][metric]:>14.6g} (not scaled)")
        for absent in result["absent"]:
            print(f"{name:24s} absent: {absent}")
        for problem in result["problems"]:
            print(f"{name:24s} problem: {problem}", file=sys.stderr)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
