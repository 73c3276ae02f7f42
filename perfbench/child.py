"""One child interpreter of a benchmark run (started by run.py).

``child.py setup --workload W`` imports ``oneill_lab.cli``, resolves every
model of the workload through ``cli.resolve_model`` and prints the
monotonic clock, so the parent can time interpreter start to ready.

``child.py work --workload W --seed N --seconds S --trace 0|1 --out-dir D``
runs passes of the workload through ``cli.main`` until the time is used up,
checks every report, and prints one JSON result line. Untraced, it measures
the end-to-end metrics; pass times are scaled to nominal machine speed by
the calibration kernel (``calibrate.py``) timed around each operation.
Traced, it first makes two counting passes at the first pass seed (exact
call counts, checked to repeat), then alternates untraced and
span-recording passes at the same seeds, which give the self times and the
tracing overhead. Self times and latencies are not scaled.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import spans  # noqa: E402
from compare import compare_outcome, compare_reports  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, pass_seed  # noqa: E402

# Spans whose self time is reported as ``<span>.self_s``.
SELF_SPANS = (
    "submersion.delta_n",
    "submersion.tensors_from_calculus",
    "submersion.PointCalculus",
    "submersion.adapted_frame_at",
    "submersion.verify_structure_lemmas",
    "submersion.verify_riemannian_submersion",
    "riemannian.metric_at",
    "riemannian.christoffel_at",
    "riemannian.riemann_at",
    "contact.verify_sasakian",
    "contact.space_form_r4_at",
    "invariants.analyze_point",
    "theorems.evaluate_theorem",
    "theorems.scan_from_records",
    "cli.resolve_model",
    "report.render",
)
# Spans whose calls per sample point are reported as ``<span>.calls_pp``.
CALL_SPANS = (
    "submersion.PointCalculus",
    "submersion.adapted_frame_at",
    "jets.seed",
    "riemannian.metric_at",
    "riemannian.riemann_at",
)
ROOT_SPAN = "cli.main"
LATENCY_SPAN = "invariants.analyze_point"
JET_COUNTER = "jets.ScalarJet"
NAMED_SPANS = frozenset(SELF_SPANS + CALL_SPANS + (ROOT_SPAN, JET_COUNTER))

# Kernel runs per calibration sample. Sampling on both sides of each
# operation tracks the host's speed during it better than one larger sample
# before it: over 280 s of report-bundled operations on a loaded 2-core VM,
# scaled times of 24 s windows spread 3.0% (before and after) against 5.4%
# (before only).
KERNEL_REPEATS = 5

# Problem messages kept for the parent to print; the count is always exact.
MAX_PROBLEMS = 20


def report_points(report: dict) -> int:
    """Admissible sample points the run carried through its pipeline."""
    if report.get("structure"):
        return int(report["structure"]["points"])
    for entry in (report.get("theorems") or {}).values():
        return int(entry["points_checked"])
    return 0


def report_records(report: dict) -> int:
    return sum(int(e["records"]) for e in (report.get("theorems") or {}).values())


class Runner:
    """Runs passes of one workload and checks their reports."""

    def __init__(self, cli, workload, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.references = {
            op.slug: json.loads(workload.reference_path(op).read_text())
            for op in workload.ops
        }
        self.attempted = 0
        self.failed = 0
        self.problems = []
        # False when a check outside the operations fails (counts repeat).
        self.consistent = True

    def _check(self, op, code, out: Path, seed: int):
        problems = []
        if code != op.exit_code:
            problems.append(f"exit code {code}, expected {op.exit_code}")
        try:
            report = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"no readable report: {exc}"], None
        reference = self.references[op.slug]
        if seed == DEFAULT_SEED:
            problems += compare_reports(reference, report)
        else:
            problems += compare_outcome(reference, report)
        return problems, report

    def run_pass(self, seed: int):
        """One pass: every op at ``seed``, each timed from its start until
        its report is checked. Returns (wall seconds, calibration kernel
        times, points, theorem records); the kernel runs right before and
        right after each op, outside the timed span."""
        wall = 0.0
        kernels = []
        points = records = 0
        for op in self.workload.ops:
            out = self.out_dir / f"{op.slug}.json"
            out.unlink(missing_ok=True)
            kernels.append(calibrate.kernel_seconds(KERNEL_REPEATS))
            sink = io.StringIO()
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(op.argv(ROOT, seed, out))
            except Exception:  # a run that raises is a failed operation
                problems, report = [traceback.format_exc(limit=3)], None
            else:
                problems, report = self._check(op, code, out, seed)
            wall += time.perf_counter() - start
            kernels.append(calibrate.kernel_seconds(KERNEL_REPEATS))
            if problems:
                self.failed += 1
                for msg in problems:
                    if len(self.problems) < MAX_PROBLEMS:
                        self.problems.append(f"{op.slug} seed={seed}: {msg}")
            if report is not None:
                points += report_points(report)
                records += report_records(report)
        return wall, kernels, points, records


def scaled_pass_time(walls, kernels) -> float:
    """Mean pass time at nominal machine speed. Each pass holds only a few
    kernel samples, so the whole run's pass times are scaled by the whole
    run's kernel times rather than pass by pass."""
    return calibrate.scaled(statistics.fmean(walls), statistics.fmean(kernels))


def _untraced(runner, seed, seconds):
    walls, kernels = [], []
    start = time.perf_counter()
    k = 0
    while True:
        wall, pass_kernels, points, _ = runner.run_pass(pass_seed(seed, k))
        walls.append(wall)
        kernels.extend(pass_kernels)
        k += 1
        # Stop before a further pass would overrun the measuring time.
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    wall_s = scaled_pass_time(walls, kernels)
    return {
        "wall_s": wall_s,
        "points_per_s": points / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": statistics.fmean(walls),
    }, k


def _count_pass(runner, targets, seed):
    counts = Counter()
    with spans.Patch(targets + spans.counted_constructors(), spans.counting_wrapper(counts)):
        _, _, points, records = runner.run_pass(seed)
    return counts, points, records


def _latency_ms(latencies, q: int) -> float:
    """The ``q``-th percentile (a multiple of 10) of the latencies."""
    if len(latencies) < 2:
        return latencies[0] if latencies else 0.0
    return statistics.quantiles(latencies, n=10, method="inclusive")[q // 10 - 1]


def _traced(runner, seed, seconds, trace_file: Path):
    targets = spans.discover()
    found = {t[0] for t in targets} | {t[0] for t in spans.counted_constructors()}
    absent = sorted(NAMED_SPANS - found)

    # The counting passes share the measuring time with the timed pairs.
    start = time.perf_counter()
    first = pass_seed(seed, 0)
    counts, points, records = _count_pass(runner, targets, first)
    again, points_again, _ = _count_pass(runner, targets, first)
    if again != counts or points_again != points:
        diff = sorted(k for k in set(counts) | set(again) if counts[k] != again[k])
        runner.problems.append(f"counts did not repeat between two passes: {diff[:10]}")
        runner.consistent = False

    log = spans.SpanLog(spans.SUMMED_ONLY)
    untraced, untraced_kernels, traced, traced_kernels = [], [], [], []
    k = 0
    while True:
        s = pass_seed(seed, k)
        pair_start = time.perf_counter()
        wall, kernels, _, _ = runner.run_pass(s)
        untraced.append(wall)
        untraced_kernels.extend(kernels)
        with spans.Patch(targets, log.wrapper):
            wall, kernels, _, _ = runner.run_pass(s)
        traced.append(wall)
        traced_kernels.extend(kernels)
        k += 1
        if time.perf_counter() - start + (time.perf_counter() - pair_start) > seconds:
            break

    latencies = [
        (end - begin) * 1e3
        for name, begin, end, _ in log.records
        if name == LATENCY_SPAN
    ]
    metrics = {}
    per_pass = 1.0 / len(traced)
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = per_pass * sum(
            v for name, v in log.self_s.items() if name.split(".", 1)[0] == layer
        )
    for name in SELF_SPANS:
        metrics[f"{name}.self_s"] = per_pass * log.self_s.get(name, 0.0)
    for layer in spans.LAYERS:
        calls = sum(
            n for name, n in counts.items()
            if name.split(".", 1)[0] == layer and name != JET_COUNTER
        )
        metrics[f"{layer}.calls_pp"] = calls / points if points else 0.0
    for name in CALL_SPANS:
        metrics[f"{name}.calls_pp"] = counts[name] / points if points else 0.0
    metrics["jets.scalar_jets_pp"] = counts[JET_COUNTER] / points if points else 0.0
    metrics["invariants.analyze_point.ms.p50"] = _latency_ms(latencies, 50)
    metrics["invariants.analyze_point.ms.p90"] = _latency_ms(latencies, 90)
    metrics["invariants.analyze_point.samples"] = len(latencies)
    metrics["theorems.records"] = records
    metrics["trace.overhead_ratio"] = scaled_pass_time(
        traced, traced_kernels
    ) / scaled_pass_time(untraced, untraced_kernels)
    metrics["trace.span_coverage"] = log.root_s / sum(traced)
    metrics["trace.absent"] = len(absent)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({rec[0] for rec in log.records})
    index = {n: i for i, n in enumerate(names)}
    trace_file.write_text(
        json.dumps(
            {
                "names": names,
                "columns": ["name", "start", "end", "parent"],
                "spans": [[index[n], a, b, p] for n, a, b, p in log.records],
                "self_s": dict(log.self_s),
                "passes": len(traced),
                "counts": dict(counts),
                "points": points,
                "absent": absent,
            }
        )
    )
    return metrics, k, absent


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "work"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path)
    ap.add_argument("--trace-file", type=Path)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    from oneill_lab import cli

    for op in workload.ops:
        cli.resolve_model(op.model_arg(ROOT))
    if args.mode == "setup":
        print(repr(time.monotonic()))
        return 0

    runner = Runner(cli, workload, args.out_dir)
    absent = []
    if args.trace:
        metrics, passes, absent = _traced(runner, args.seed, args.seconds, args.trace_file)
    else:
        metrics, passes = _untraced(runner, args.seed, args.seconds)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and runner.consistent,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
                "passes": passes,
                "problems": runner.problems,
                "absent": absent,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
