"""Residual gates and verdicts: every residual check of a report gates on the
tier that the README's "Tolerance tiers" table names, through the one gate
``report.residual_checks``, and a ``Report`` derives its verdict from its
checks and the model's known flags."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from oneill_lab.cli import RunConfig, run
from oneill_lab.report import Report, Tolerances, residual_checks

README = Path(__file__).resolve().parents[1] / "README.md"
REEB = os.path.join(os.path.dirname(__file__), os.pardir, "models", "reeb_fiber.json")

# check ids that are not residuals, so have no tier
NOT_RESIDUALS = re.compile(r"submersion\.base_pd|theorems\..*")


def _readme_tiers() -> dict:
    """The rows of the README's tier table, check id (or ``<section>.*``)
    to tier name."""
    text = README.read_text()
    section = text[text.index("## Tolerance tiers") :]
    section = section[: section.index("\n## ", 1)]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", section, re.MULTILINE)
    return dict(rows)


def _readme_tier(check_id: str) -> str:
    tiers = _readme_tiers()
    return tiers.get(check_id) or tiers[check_id.split(".")[0] + ".*"]


@pytest.fixture(scope="module")
def reports():
    """The report runs of the three bundled models and the verify run of
    r2m1:3, at a few points."""
    runs = [("report", model) for model in ("vertical-xi", "horizontal-xi", REEB)]
    runs.append(("verify", "r2m1:3"))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return {
            (command, model): run(RunConfig(command=command, model=model, points=6))
            for command, model in runs
        }


def test_each_residual_check_gates_on_its_readme_tier(reports):
    """At the tolerance of its tier a residual passes, and at the next float
    above it fails. The default tiers are distinct, so a check on any other
    tier would give another answer at one of the two."""
    tol = Tolerances()
    assert set(_readme_tiers().values()) == set(tol._fields)
    check_ids = {c for rep in reports.values() for c in rep.checks}
    residuals = sorted(c for c in check_ids if not NOT_RESIDUALS.fullmatch(c))
    assert len(residuals) == 23
    for check_id in residuals:
        section, key = check_id.split(".", 1)
        limit = getattr(tol, _readme_tier(check_id))
        assert residual_checks(section, {key: limit}, tol) == {check_id: True}
        above = np.nextafter(limit, np.inf)
        assert residual_checks(section, {key: above}, tol) == {check_id: False}
        assert residual_checks(section, {key: np.nan}, tol) == {check_id: False}


def test_every_residual_check_of_a_run_is_its_maximum_gated(reports):
    """A run's residual checks are ``residual_checks`` of the maxima it
    reports, in the order of its checks."""
    tol = Tolerances()
    for rep in reports.values():
        structure = rep.structure
        gated = residual_checks("sasakian", structure["sasakian"], tol)
        gated.update(residual_checks("curvature", structure["curvature"], tol))
        if rep.identities is not None:
            sub = structure["submersion"]
            maxima = {"kernel": sub["kernel"], "length": sub["length"]}
            gated.update(residual_checks("submersion", maxima, tol))
            gated.update(residual_checks("lemmas", structure["lemmas"], tol))
            gated.update(residual_checks("identities", rep.identities["max_residuals"], tol))
        residual_ids = [c for c in rep.checks if not NOT_RESIDUALS.fullmatch(c)]
        assert residual_ids == list(gated)
        assert {c: rep.checks[c] for c in residual_ids} == gated


def _report(checks, known_flags=frozenset()):
    return Report(
        config={}, structure=None, identities=None, theorems=None,
        checks=checks, known_flags=frozenset(known_flags),
    )


def test_report_verdicts():
    flags = {"theorems.H2", "identities.S1"}
    passing = _report({"sasakian.eta_xi": True, "theorems.H2": True}, flags)
    assert (passing.verdict, passing.failed, passing.flags_raised) == ("pass", (), ())

    flagged = _report({"sasakian.eta_xi": True, "theorems.H2": False}, flags)
    assert flagged.verdict == "pass-with-flags"
    assert flagged.failed == flagged.flags_raised == ("theorems.H2",)

    failing = _report(
        {"sasakian.eta_xi": False, "theorems.H2": False, "identities.S1": True}, flags
    )
    assert failing.verdict == "fail"
    assert failing.failed == ("sasakian.eta_xi", "theorems.H2")
    assert failing.flags_raised == ("theorems.H2",)
    tail = failing.to_dict()
    assert (tail["failed"], tail["flags_raised"], tail["verdict"]) == (
        ["sasakian.eta_xi", "theorems.H2"], ["theorems.H2"], "fail"
    )

    # a model without known flags fails on any failed check
    assert _report({"theorems.H2": False}).verdict == "fail"
