"""The report comparator accepts rounding-level change and nothing else."""

import copy
import json
from pathlib import Path

import pytest

from compare import ATOL, RTOL, compare_outcome, compare_reports

REFERENCE = (
    Path(__file__).resolve().parents[1]
    / "reference"
    / "report-bundled"
    / "report-horizontal-xi.json"
)


@pytest.fixture
def ref():
    return json.loads(REFERENCE.read_text())


def test_identical_report_agrees(ref):
    assert compare_reports(ref, copy.deepcopy(ref)) == []


def test_flipped_check_is_rejected(ref):
    got = copy.deepcopy(ref)
    got["checks"]["identities.T1"] = not got["checks"]["identities.T1"]
    assert any("identities.T1" in m for m in compare_reports(ref, got))


def test_changed_violation_count_is_rejected(ref):
    got = copy.deepcopy(ref)
    got["theorems"]["H2"]["violations"] -= 1
    assert any("H2.violations" in m for m in compare_reports(ref, got))


def test_float_beyond_bound_is_rejected(ref):
    got = copy.deepcopy(ref)
    val = got["theorems"]["H2"]["min_slack"]
    got["theorems"]["H2"]["min_slack"] = val * (1 + 10 * RTOL)
    assert any("H2.min_slack" in m for m in compare_reports(ref, got))


def test_float_within_bound_is_accepted(ref):
    got = copy.deepcopy(ref)
    val = got["theorems"]["H2"]["min_slack"]
    got["theorems"]["H2"]["min_slack"] = val * (1 + RTOL / 10)
    # a residual that is rounding noise around zero moves by less than ATOL
    got["identities"]["max_residuals"]["T4"] += ATOL / 2
    assert compare_reports(ref, got) == []


def test_argmin_point_must_match_exactly(ref):
    got = copy.deepcopy(ref)
    got["theorems"]["H2"]["argmin_point"][0] *= 1 + RTOL / 10
    assert any("argmin_point" in m for m in compare_reports(ref, got))


def test_different_model_path_is_accepted():
    ref = json.loads(
        (REFERENCE.parent / "report-reeb_fiber.json").read_text()
    )
    got = copy.deepcopy(ref)
    got["config"]["model"] = "/some/other/checkout/models/reeb_fiber.json"
    assert compare_reports(ref, got) == []
    got["config"]["model"] = "/some/other/checkout/models/other.json"
    assert compare_reports(ref, got) != []


def test_outcome_check_ignores_values_but_not_failures(ref):
    got = copy.deepcopy(ref)
    got["theorems"]["H2"]["min_slack"] *= 2
    assert compare_outcome(ref, got) == []
    got["failed"] = got["failed"][1:]
    assert compare_outcome(ref, got) != []
    got = copy.deepcopy(ref)
    got["verdict"] = "fail"
    assert compare_outcome(ref, got) != []
