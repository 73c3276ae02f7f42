"""Golden regression: seeded reports against the stored benchmark references.

``report --points 6 --seed 42`` on the bundled models must agree with
``perfbench/reference/report-bundled/`` under the benchmark's own comparator
(verdicts, checks, counts, and argmin points exactly; other floats within
its rounding bound). Several theorem argmins are picked among slacks that
differ only at rounding level, so a refactor that moves a float by an ulp
in the wrong place fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from oneill_lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "perfbench" / "reference" / "report-bundled"


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "perfbench_compare", ROOT / "perfbench" / "compare.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_reports


compare_reports = _load_compare()


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
