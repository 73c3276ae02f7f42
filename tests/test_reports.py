"""The committed reports are what ``scripts/run_all.py`` writes.

Every report under ``reports/`` is rewritten into a temporary directory and
compared line for line with the committed file. Two lines are exempt: the
``generated_at`` timestamp, and the echoed ``model``, which is compared by
file name only because a model file is echoed as the path it was run from.
Every other float is compared as rendered, so a change at rounding level
fails here even where the golden tests' tolerance lets it through.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
REPORTS = REPO / "reports"


def _run_all(out_dir: Path) -> int:
    spec = importlib.util.spec_from_file_location("run_all", REPO / "scripts" / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cli(["--out-dir", str(out_dir)])


def _comparable_lines(text: str) -> list:
    lines = []
    for line in text.splitlines():
        key, _, rest = line.strip().partition(": ")
        if key == '"generated_at"':
            continue
        if key == '"model"':
            line = f'"model": {Path(json.loads(rest.rstrip(","))).name}'
        lines.append(line)
    return lines


def test_run_all_rewrites_the_committed_reports(tmp_path):
    assert _run_all(tmp_path) == 0
    committed = sorted(p.name for p in REPORTS.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == committed
    for name in committed:
        want = _comparable_lines((REPORTS / name).read_text())
        got = _comparable_lines((tmp_path / name).read_text())
        for number, (a, b) in enumerate(zip(want, got), start=1):
            assert a == b, f"{name}, line {number}: {b!r} != committed {a!r}"
        assert len(got) == len(want), name
