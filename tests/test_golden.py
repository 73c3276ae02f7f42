"""Golden regression: seeded reports against the stored benchmark references.

Every operation of the benchmark workloads, run at seed 42, must agree with
its reference report under ``perfbench/reference/`` under the benchmark's
own comparator (verdicts, checks, counts, and argmin points exactly; other
floats within its rounding bound): ``report --points 6`` on the bundled
models, ``verify --points 400`` on ``r2m1:1..4``, and ``theorems --points 8
--probe random:64`` on both Reeb cases. Several theorem argmins are picked
among slacks that differ only at rounding level, so a refactor that moves a
float by an ulp in the wrong place fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from oneill_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "perfbench" / "reference" / "report-bundled"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


compare_reports = _load_perfbench("compare").compare_reports
WORKLOADS = _load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize(
    "model, slug, exit_code",
    [
        ("vertical-xi", "vertical-xi", 0),
        ("horizontal-xi", "horizontal-xi", 3),
        (str(ROOT / "models" / "reeb_fiber.json"), "reeb_fiber", 3),
    ],
)
def test_seed42_report_matches_reference(tmp_path, capsys, model, slug, exit_code):
    out = tmp_path / f"{slug}.json"
    argv = ["report", "--model", model, "--points", "6", "--seed", "42"]
    code = main(argv + ["--no-timestamp", "--out", str(out)])
    capsys.readouterr()
    assert code == exit_code
    reference = json.loads((REFERENCE_DIR / f"report-{slug}.json").read_text())
    assert compare_reports(reference, json.loads(out.read_text())) == []


@pytest.mark.parametrize(
    "workload, op",
    [
        (w, op)
        for w in ("verify-spaceform-sweep", "theorems-random-probes")
        for op in WORKLOADS[w].ops
    ],
    ids=lambda v: v if isinstance(v, str) else v.slug,
)
def test_seed42_workload_matches_reference(tmp_path, capsys, workload, op):
    out = tmp_path / f"{op.slug}.json"
    code = main(op.argv(ROOT, 42, out))
    capsys.readouterr()
    assert code == op.exit_code
    reference = json.loads(WORKLOADS[workload].reference_path(op).read_text())
    assert compare_reports(reference, json.loads(out.read_text())) == []
