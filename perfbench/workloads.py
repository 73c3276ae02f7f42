"""Workload definitions for the oneill-lab benchmark.

A workload is a fixed list of CLI operations. One pass of a workload runs
every operation once through ``oneill_lab.cli.main`` at one sampling seed.
The benchmark seed picks the sampling seed of every pass; the program sees
nothing of the benchmark but its ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# The seed the CLI defaults to. Passes run at this seed are compared in full
# with the stored reference reports; other seeds check the verdict and the
# set of failed checks only.
DEFAULT_SEED = 42

# Seed stride between the passes of one run, so no pass repeats the points
# of another and a per-point cache cannot turn later passes into lookups.
PASS_SEED_STRIDE = 1_000_003

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

@dataclass(frozen=True)
class Op:
    """One ``(model, command)`` CLI run and the exit code it must give."""

    command: str
    model: str  # builtin name, or a model file path relative to the checkout
    points: int
    exit_code: int
    extra: tuple = ()  # further CLI arguments

    @property
    def slug(self) -> str:
        return f"{self.command}-{Path(self.model).stem.replace(':', '-')}"

    def model_arg(self, root: Path) -> str:
        # File models are passed by absolute path, as scripts/run_all.py does.
        if self.model.endswith(".json"):
            return str(root / self.model)
        return self.model

    def argv(self, root: Path, seed: int, out: Path) -> list:
        return [
            self.command,
            "--model", self.model_arg(root),
            "--points", str(self.points),
            "--seed", str(seed),
            "--no-timestamp",
            "--out", str(out),
            *self.extra,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple

    def reference_path(self, op: Op) -> Path:
        return REFERENCE_DIR / self.name / f"{op.slug}.json"


def pass_seed(seed: int, index: int) -> int:
    return seed + index * PASS_SEED_STRIDE


# Point counts are chosen so that one pass takes a few seconds on a 2-core
# x86 machine with Python 3.11: long enough to dwarf interpreter noise,
# short enough that a 40 s run holds about ten passes.
WORKLOADS = {
    w.name: w
    for w in (
        # The end-to-end path of the project: a full report on both Reeb
        # cases and on one model loaded from a file. Per-point cost is
        # dominated by submersion (delta_n) and invariants; the structure
        # section rebuilds PointCalculus and the adapted frame, so sharing
        # that work shows here and only here.
        Workload(
            name="report-bundled",
            why="full report on both Reeb cases and a file-loaded model; "
            "dominated by the submersion and invariants layers",
            ops=(
                Op("report", "vertical-xi", 6, 0),
                Op("report", "horizontal-xi", 6, 3),
                Op("report", "models/reeb_fiber.json", 6, 3),
            ),
        ),
        # Plain Sasakian space forms in dimensions 3, 5, 7 and 9. All work
        # is in jets, riemannian and contact, so it is the bypass workload
        # for changes to submersion, invariants and theorems (prediction:
        # no change), and it shows how jet and curvature cost scale with d.
        Workload(
            name="verify-spaceform-sweep",
            why="verify on r2m1:1..4 (d=3..9); only jets, riemannian and "
            "contact run, so it bypasses the submersion-level layers",
            ops=tuple(Op("verify", f"r2m1:{m}", 400, 0) for m in (1, 2, 3, 4)),
        ),
        # Theorem scans on both Reeb cases with all applicable theorems and
        # 64 random probe frames per point. There is no structure section,
        # so each point builds one PointCalculus and one frame, and theorem
        # evaluation is a real share of the time: a change that shares work
        # between the structure and identity sections gains on
        # report-bundled only, and one that slims PointAnalysis at the
        # probes' expense shows here.
        Workload(
            name="theorems-random-probes",
            why="theorem scans with 64 random probes per point on both Reeb "
            "cases; one frame per point, theorem evaluation a real share",
            ops=tuple(
                Op("theorems", model, 8, code, extra=("--probe", "random:64"))
                for model, code in (("vertical-xi", 0), ("horizontal-xi", 3))
            ),
        ),
    )
}
