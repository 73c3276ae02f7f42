"""Deterministic JSON reports for verification runs.

A report aggregates three sections (structure residuals, identity residuals,
theorem scans) plus a verdict.  Every float is serialized with 17 significant
digits, NaN and infinities (which JSON lacks) as the strings "NaN",
"Infinity" and "-Infinity", and all keys are emitted in a fixed order, so
two runs with the same configuration produce byte-identical files apart
from the optional timestamp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RejectedInputError

REPORT_SCHEMA = "oneill-lab-report/1"


@dataclass(frozen=True)
class Tolerances:
    """Four-tier absolute tolerances: algebraic identities, first-derivative
    level residuals, curvature-level residuals, and residuals involving
    second derivatives of curvature-corrected quantities."""

    alg: float = 1e-10
    d1: float = 1e-8
    curv: float = 1e-7
    d2curv: float = 1e-6


# Checks that are expected to deviate on specific bundled model files; a run
# whose only failures are in its file's set gets verdict pass-with-flags
# instead of fail. Keyed on the sha256 of the file's bytes, so a model file
# cannot claim another model's flags by declaring its name; tests/test_cli.py
# pins the keys to the bundled files.
KNOWN_FLAGS = {
    # src/oneill_lab/models/horizontal-xi.json
    "6d7732bb2b2a0fcde78ab21d26bc6680115bacc568e0cede460e149b224a6f49": frozenset(
        {
            "submersion.length",
            "submersion.base_pd",
            "lemmas.a_alternation",
            "identities.S1",
            "identities.S3",
            "identities.gauss3",
            "theorems.H2",
            "theorems.CRH2",
        }
    ),
    # models/reeb_fiber.json: one-dimensional fiber spanned by the Reeb
    # field; the combined lower bound evaluates to 1 <= -7 at the Reeb probe,
    # at every point. Documented finding, not a regression, so it raises a
    # flag.
    "ec07cb2f2602bcd9b3f8407c442d68fa457fe1b6ef3f9e89e47b7a763d6f57f6": frozenset(
        {"theorems.CMB1"}
    ),
}

# identity ids whose residuals are first-derivative level; the rest involve
# curvature differences and get the d2curv tier
_D1_IDENTITIES = frozenset({"T1"})


def known_flags_for(model_bytes: bytes) -> frozenset:
    """Registered flags of the model file with these contents."""
    import hashlib  # on first use: loading it costs ~5 ms of start-up

    return KNOWN_FLAGS.get(hashlib.sha256(model_bytes).hexdigest(), frozenset())


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def render_json(obj, indent: int = 0) -> str:
    sp = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{sp}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + sp + "}"
    if isinstance(obj, (list, tuple)) or (
        isinstance(obj, np.ndarray) and obj.ndim == 1
    ):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{sp}  {render_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + sp + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            # JSON has no NaN or infinity; name them in a string
            return json.dumps(_NON_FINITE[str(float(obj))])
        return format(float(obj), ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise RejectedInputError(f"unserializable report value: {type(obj).__name__}")


@dataclass
class Report:
    """Assembled run result; ``checks`` maps dotted item ids to pass/fail."""

    config: dict
    structure: Optional[dict]
    identities: Optional[dict]
    theorems: Optional[dict]
    checks: dict
    verdict: str
    flags_raised: tuple

    @property
    def failed(self) -> tuple:
        return tuple(k for k, ok in self.checks.items() if not ok)

    def to_dict(self, timestamp: Optional[str] = None) -> dict:
        out = {"schema": REPORT_SCHEMA}
        if timestamp is not None:
            out["generated_at"] = timestamp
        out["config"] = self.config
        if self.structure is not None:
            out["structure"] = self.structure
        if self.identities is not None:
            out["identities"] = self.identities
        if self.theorems is not None:
            out["theorems"] = self.theorems
        out["checks"] = self.checks
        out["failed"] = list(self.failed)
        out["flags_raised"] = list(self.flags_raised)
        out["verdict"] = self.verdict
        return out

    def render(self, timestamp: Optional[str] = None) -> str:
        return render_json(self.to_dict(timestamp)) + "\n"


def decide_verdict(checks: dict, flagged: frozenset):
    """(verdict, flags_raised): pass when everything holds, pass-with-flags
    when only items in ``flagged`` fail, fail otherwise."""
    failed = tuple(k for k, ok in checks.items() if not ok)
    if not failed:
        return "pass", ()
    if set(failed) <= flagged:
        return "pass-with-flags", failed
    return "fail", tuple(k for k in failed if k in flagged)


def identity_tolerance(identity_id: str, tol: Tolerances) -> float:
    return tol.d1 if identity_id in _D1_IDENTITIES else tol.d2curv
