"""The no-regression verdict of ``scripts/ab_pairs.py`` on synthetic pairs,
and its host-parallelism probe."""

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = {
    "within_s": {"better": "lower", "bound": 0.2},
    "beyond_s": {"better": "lower", "bound": 0.2},
    "noisy_s": {"better": "lower", "bound": 0.2},
    "rate": {"better": "higher", "bound": 0.2},
}


def _pairs(columns):
    """Pairs of runs from ``{metric: (parent runs, change runs)}``."""
    count = len(next(iter(columns.values()))[0])
    return [
        {
            side: {"metrics": {name: runs[k][i] for name, runs in columns.items()}}
            for k, side in enumerate(("parent", "change"))
        }
        for i in range(count)
    ]


def test_summarize_gives_within_beyond_and_unresolved():
    pairs = _pairs(
        {
            # 1.19x worse: within the 20% bound
            "within_s": ([1.0, 1.0, 1.0, 1.0], [1.19, 1.19, 1.19, 1.19]),
            # 1.25x worse: beyond it
            "beyond_s": ([1.0, 1.0, 1.0, 1.0], [1.25, 1.25, 1.25, 1.25]),
            # the parent's IQR is 0.55 of its median 1.0, and the change is
            # better in 2 of 4 pairs
            "noisy_s": ([0.5, 0.8, 1.2, 1.5], [0.9, 0.7, 1.3, 1.4]),
            # 0.85x of a higher-is-better rate: within the bound
            "rate": ([100.0, 100.0, 100.0, 100.0], [85.0, 85.0, 85.0, 85.0]),
        }
    )
    summary = ab_pairs.summarize(pairs, METRICS)
    verdicts = {name: (m["within_bound"], m["unresolved"]) for name, m in summary.items()}
    assert verdicts == {
        "within_s": (True, False),
        "beyond_s": (False, False),
        "noisy_s": (True, True),
        "rate": (True, False),
    }
    assert summary["noisy_s"]["change_better_pairs"] == 2
    assert not ab_pairs.no_regression(summary, failed_ops=0)
    clean = {name: summary[name] for name in ("within_s", "rate")}
    assert ab_pairs.no_regression(clean, failed_ops=0)
    assert not ab_pairs.no_regression(clean, failed_ops=1)


def test_a_wide_parent_is_resolved_only_when_every_change_run_beats_every_parent_run():
    spec = {"noisy_s": METRICS["noisy_s"]}
    # better in every pair, but 1.4 is not better than the parent's 0.5
    pairs = _pairs({"noisy_s": ([0.5, 0.8, 1.2, 1.5], [0.4, 0.7, 1.1, 1.4])})
    (summary,) = ab_pairs.summarize(pairs, spec).values()
    assert summary["change_better_pairs"] == 4
    assert (summary["within_bound"], summary["unresolved"]) == (True, True)
    pairs = _pairs({"noisy_s": ([0.5, 0.8, 1.2, 1.5], [0.1, 0.2, 0.3, 0.4])})
    (summary,) = ab_pairs.summarize(pairs, spec).values()
    assert (summary["within_bound"], summary["unresolved"]) == (True, False)


def test_the_bounds_are_read_from_the_benchmark_declaration():
    metrics = ab_pairs._end_to_end()
    assert set(metrics) == {"setup_s", "wall_s", "points_per_s", "peak_rss_mb"}
    assert all({"better", "bound"} <= set(m) for m in metrics.values())


def test_host_parallelism_is_a_positive_ratio_and_reaps_its_children():
    ratio = ab_pairs.host_parallelism(loops=20_000)
    assert ratio > 0.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
