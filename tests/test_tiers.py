"""Residual gates and verdicts: every residual check of a report gates on the
tier that the README's "Tolerance tiers" table names, through the one gate
``report.residual_checks``; a ``Report`` derives its checks from its sections
and the tolerances its config echoes, and its verdict from those checks and
the model's known flags."""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from oneill_lab.cli import BUNDLED_DIR, RunConfig, run
from oneill_lab.report import Report, Tolerances, known_flags_for, residual_checks

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


# the run whose curvature and identity tiers are below the residuals they gate
FAILING_TIERS = RunConfig(
    command="report", points=11, tolerances=Tolerances(curv=1e-16, d2curv=1e-16)
)


@pytest.fixture(scope="module")
def more_reports():
    """A theorem scan of vertical-xi and the run of ``FAILING_TIERS``, both
    at seed 42."""
    return {
        ("theorems", "vertical-xi"): run(RunConfig(command="theorems", points=6)),
        ("failing-tiers", "vertical-xi"): run(FAILING_TIERS),
    }


def _model_bytes(model):
    """The model file's bytes, or None for a model without a file."""
    if model.startswith("r2m1:"):
        return None
    path = BUNDLED_DIR / f"{model}.json" if not model.endswith(".json") else Path(model)
    return path.read_bytes()


NON_FINITE = {"NaN": np.nan, "Infinity": np.inf, "-Infinity": -np.inf}

# the config echo of a hand-built report: the default tiers
CONFIG = {"tolerances": Tolerances()._asdict()}


def _parsed(text):
    """A rendered report as JSON, with the strings that name NaN and the
    infinities read as the floats they name."""

    def floats(obj):
        if isinstance(obj, dict):
            return {key: floats(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [floats(value) for value in obj]
        return NON_FINITE.get(obj, obj) if isinstance(obj, str) else obj

    return floats(json.loads(text))


def _rebuilt(rendered, known_flags=frozenset()):
    """The ``Report`` of a parsed rendered report's config and sections."""
    return Report(
        config=rendered["config"],
        structure=rendered.get("structure"),
        identities=rendered.get("identities"),
        theorems=rendered.get("theorems"),
        known_flags=known_flags,
    )


def test_a_rendered_report_alone_fixes_its_checks_and_verdict(reports, more_reports):
    """A ``Report`` rebuilt from a rendered run, its sections and config and
    the known flags of its model file's bytes, gives the run's checks, failed
    checks, raised flags and verdict."""
    for (_, model), rep in {**reports, **more_reports}.items():
        rendered = _parsed(rep.render())
        contents = _model_bytes(model)
        rebuilt = _rebuilt(rendered, known_flags_for(contents) if contents else frozenset())
        assert list(rebuilt.checks.items()) == list(rendered["checks"].items())
        assert list(rebuilt.failed) == rendered["failed"]
        assert list(rebuilt.flags_raised) == rendered["flags_raised"]
        assert rebuilt.verdict == rendered["verdict"]


def test_a_render_derives_the_checks_once(reports, more_reports, monkeypatch):
    """``render`` derives a report's check map once and takes its failed
    checks, raised flags and verdict from that one map."""
    derive = Report.checks.fget
    calls = []

    def counted(self):
        calls.append(self)
        return derive(self)

    monkeypatch.setattr(Report, "checks", property(counted))
    for key, rep in {**reports, **more_reports}.items():
        calls.clear()
        rep.render()
        assert len(calls) == 1, key


def test_tiers_below_the_residuals_fail_their_checks(more_reports):
    """On vertical-xi at 11 points, a curvature and an identity tier of 1e-16
    fail the curvature cross-check and seven identities, but not ``T1``,
    which gates on ``d1``."""
    rep = more_reports[("failing-tiers", "vertical-xi")]
    assert rep.verdict == "fail"
    assert rep.failed[0] == "curvature.curv1"
    failed_identities = [c for c in rep.failed if c.startswith("identities.")]
    assert len(failed_identities) == 7 == len(rep.failed) - 1
    assert rep.checks["identities.T1"] is True


def test_a_rendered_nan_residual_still_fails_its_check():
    rep = Report(CONFIG, identities={"max_residuals": {"T1": np.nan, "S1": 0.0}})
    rendered = _parsed(rep.render())
    assert rendered["checks"] == {"identities.T1": False, "identities.S1": True}
    assert _rebuilt(rendered).checks == rendered["checks"]


def _structure(base_pd_all):
    """A submersion structure section whose residuals are all 0."""
    return {
        "points": 1,
        "sasakian": {},
        "curvature": {"curv1": 0.0},
        "submersion": {"kernel": 0.0, "length": 0.0, "base_pd_all": base_pd_all},
        "lemmas": {},
    }


def test_base_pd_follows_base_pd_all():
    for base_pd_all in (True, False):
        checks = Report(CONFIG, structure=_structure(base_pd_all)).checks
        assert list(checks) == [
            "curvature.curv1", "submersion.kernel", "submersion.length", "submersion.base_pd"
        ]
        assert checks["submersion.base_pd"] is base_pd_all


def test_a_theorem_with_variants_holds_while_one_survives():
    theorems = {
        "CRH1": {"violations": 3, "surviving_variants": ["kappa=3/8"]},
        "CRV1": {"violations": 1},
        "V1": {"violations": 0},
    }
    assert Report(CONFIG, theorems=theorems).checks == {
        "theorems.CRH1": True, "theorems.CRV1": False, "theorems.V1": True
    }
    theorems["CRH1"]["surviving_variants"] = []
    assert Report(CONFIG, theorems=theorems).checks["theorems.CRH1"] is False
    # with no violation, the variants still decide
    theorems["CRH1"]["violations"] = 0
    assert Report(CONFIG, theorems=theorems).checks["theorems.CRH1"] is False


def _report(checks, known_flags=frozenset()):
    """A report whose sections give exactly ``checks``: a residual of 0 or
    of 1 (above every default tier), a scan of 0 or of 1 violation."""
    sections = {"sasakian": {}, "identities": {}, "theorems": {}}
    for check_id, ok in checks.items():
        section, key = check_id.split(".")
        if section == "theorems":
            sections[section][key] = {"violations": 0 if ok else 1}
        else:
            sections[section][key] = 0.0 if ok else 1.0
    report = Report(
        config=CONFIG,
        structure={"sasakian": sections["sasakian"], "curvature": {}},
        identities={"max_residuals": sections["identities"]},
        theorems=sections["theorems"],
        known_flags=frozenset(known_flags),
    )
    assert report.checks == checks
    return report


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
