"""The committed reports are what the program writes.

Every report under ``reports/`` is rewritten by ``scripts/run_all.py`` into a
temporary directory, and every operation of the benchmark's workloads is run
at the reference seed; each is compared line for line with the committed
file. Two lines are exempt: the ``generated_at`` timestamp, and the echoed
``model``, which is compared by file name only because a model file is
echoed as the path it was run from.
Every other float is compared as rendered, so a change at rounding level
fails here even where the golden tests' tolerance lets it through.
"""

import importlib.util
import json
import sys
from pathlib import Path

from oneill_lab.cli import main

REPO = Path(__file__).resolve().parents[1]
REPORTS = REPO / "reports"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _run_all(out_dir: Path) -> int:
    module = _load("run_all", REPO / "scripts" / "run_all.py")
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


def _assert_same_lines(name: str, committed: str, written: str):
    want = _comparable_lines(committed)
    got = _comparable_lines(written)
    for number, (a, b) in enumerate(zip(want, got), start=1):
        assert a == b, f"{name}, line {number}: {b!r} != committed {a!r}"
    assert len(got) == len(want), name


def test_run_all_rewrites_the_committed_reports(tmp_path):
    assert _run_all(tmp_path) == 0
    committed = sorted(p.name for p in REPORTS.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == committed
    for name in committed:
        _assert_same_lines(
            name, (REPORTS / name).read_text(), (tmp_path / name).read_text()
        )


def test_benchmark_operations_rewrite_their_references(tmp_path, capsys):
    workloads = _load("perfbench_workloads", REPO / "perfbench" / "workloads.py")
    checked = 0
    for workload in workloads.WORKLOADS.values():
        for op in workload.ops:
            out = tmp_path / f"{workload.name}-{op.slug}.json"
            argv = op.argv(REPO, workloads.DEFAULT_SEED, out)
            assert main(argv) == op.exit_code, argv
            capsys.readouterr()
            reference = workload.reference_path(op)
            _assert_same_lines(
                f"{workload.name}/{reference.name}",
                reference.read_text(),
                out.read_text(),
            )
            checked += 1
    assert checked == 9
