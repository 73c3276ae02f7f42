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
from typing import NamedTuple, Optional

import numpy as np

from .errors import RejectedInputError

REPORT_SCHEMA = "oneill-lab-report/1"


class Tolerances(NamedTuple):
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

# The tolerance tier of each residual check, by check id; ``<section>.*``
# gives the tier of a section's ids not named (README, "Tolerance tiers").
RESIDUAL_TIERS = {
    "sasakian.phi_square": "alg",
    "sasakian.eta_xi": "alg",
    "sasakian.phi_metric_compat": "alg",
    "sasakian.eta_is_metric_dual": "alg",
    "sasakian.*": "d1",
    "curvature.*": "curv",
    "submersion.*": "d1",
    "lemmas.*": "d1",
    "identities.T1": "d1",
    "identities.*": "d2curv",
}


def residual_checks(section: str, maxima: dict, tol: Tolerances) -> dict:
    """The check of each residual maximum of a report section, in order:
    ``<section>.<key>`` holds when the maximum is at most the tolerance of
    its tier in ``RESIDUAL_TIERS`` (a NaN fails)."""
    checks = {}
    for key, value in maxima.items():
        check_id = f"{section}.{key}"
        tier = RESIDUAL_TIERS.get(check_id) or RESIDUAL_TIERS[f"{section}.*"]
        checks[check_id] = value <= getattr(tol, tier)
    return checks


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
    # a record is a NamedTuple, not a JSON list: it is rejected below
    if isinstance(obj, list) or (
        isinstance(obj, tuple) and not hasattr(obj, "_fields")
    ) or (isinstance(obj, np.ndarray) and obj.ndim == 1):
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


class Report(NamedTuple):
    """Assembled run result; ``known_flags`` are the model's registered
    findings (``known_flags_for``). Its checks are derived from its sections
    and the tolerances that ``config`` echoes, so a rendered report alone
    fixes them."""

    config: dict
    structure: Optional[dict] = None
    identities: Optional[dict] = None
    theorems: Optional[dict] = None
    known_flags: frozenset = frozenset()

    @property
    def checks(self) -> dict:
        """Dotted check ids to pass/fail, in report order: the residual
        maxima of each section gated by ``residual_checks``, with
        ``submersion.base_pd`` from ``base_pd_all``; ``theorems.<ID>`` holds
        when the scan has no violation or, for an id with variants, when a
        variant survives."""
        tol = Tolerances(**self.config["tolerances"])
        checks = {}
        structure = self.structure
        if structure is not None:
            checks.update(residual_checks("sasakian", structure["sasakian"], tol))
            checks.update(residual_checks("curvature", structure["curvature"], tol))
            if "submersion" in structure:
                sub = structure["submersion"]
                maxima = {"kernel": sub["kernel"], "length": sub["length"]}
                checks.update(residual_checks("submersion", maxima, tol))
                checks["submersion.base_pd"] = sub["base_pd_all"]
                checks.update(residual_checks("lemmas", structure["lemmas"], tol))
        if self.identities is not None:
            checks.update(residual_checks("identities", self.identities["max_residuals"], tol))
        for tid, entry in (self.theorems or {}).items():
            passed = entry["violations"] == 0
            checks[f"theorems.{tid}"] = bool(entry.get("surviving_variants", passed))
        return checks

    @property
    def failed(self) -> tuple:
        return tuple(k for k, ok in self.checks.items() if not ok)

    @property
    def flags_raised(self) -> tuple:
        return tuple(k for k in self.failed if k in self.known_flags)

    @property
    def verdict(self) -> str:
        """pass when every check holds, pass-with-flags when every failed
        check is a known flag, fail otherwise."""
        if not self.failed:
            return "pass"
        return "pass-with-flags" if set(self.failed) <= self.known_flags else "fail"

    def to_dict(self, timestamp: Optional[str] = None) -> dict:
        out = {"schema": REPORT_SCHEMA}
        if timestamp is not None:
            out["generated_at"] = timestamp
        out["config"] = self.config
        for name in ("structure", "identities", "theorems"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        out["checks"] = self.checks
        out["failed"] = list(self.failed)
        out["flags_raised"] = list(self.flags_raised)
        out["verdict"] = self.verdict
        return out

    def render(self, timestamp: Optional[str] = None) -> str:
        return render_json(self.to_dict(timestamp)) + "\n"
