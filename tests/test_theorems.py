"""Inequality catalog: frozen values, gating, probes, scan aggregation.

The (lhs, rhs, slack) triples were derived by hand from the constant frame
tables of the builtin models and confirmed against tests/frame_oracle.py;
they are frozen here as regression anchors.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from slices import analysis_blocks, block_of_one, blocks_of_one, calc_of_one, table_rows
from oneill_lab import theorems
from oneill_lab.cli import main, resolve_model
from oneill_lab.errors import EmptySampleError, RejectedInputError
from oneill_lab.invariants import ric_hat_probes, ric_star_probes
from oneill_lab.sampling import SampleConfig, sample_submersion_points
from oneill_lab.submersion import load_custom_model, verify_riemannian_submersion
from oneill_lab.theorems import (
    CRH1_VARIANTS,
    EQUALITY_TOL,
    SLACK_FLOOR,
    THEOREM_IDS,
    TheoremTable,
    applicable_ids,
    evaluate_theorem,
    parse_theorem_ids,
    required_xi_case,
    scan_from_records,
    scan_theorems,
)

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")

PT = np.array([0.3, -0.7, 0.9, 0.4, 0.2])
H_PT = np.array([0.9, 0.8, 1.0, 0.9, 0.3])

TOL = 1e-6


@pytest.fixture(scope="module")
def vx_analysis():
    sub = resolve_model("vertical-xi")
    return block_of_one(sub, PT)


@pytest.fixture(scope="module")
def hx_analysis():
    sub = resolve_model("horizontal-xi")
    return block_of_one(sub, H_PT)


@pytest.fixture(scope="module")
def reeb_analysis():
    sub = load_custom_model(Path(MODELS_DIR, "reeb_fiber.json").read_bytes())
    return block_of_one(sub, PT)


def evaluate(block, *args, **kwargs):
    """Point 0's rows of ``evaluate_theorem`` on a block of one point."""
    return table_rows(evaluate_theorem(block, *args, **kwargs))


def only(table):
    assert table.slack.shape == (1,)
    return table


def check(table, lhs, rhs, slack, holds=True, equality=None, row=0):
    assert abs(table.lhs[row] - lhs) < TOL
    assert abs(table.rhs[row] - rhs) < TOL
    assert abs(table.slack[row] - slack) < TOL
    assert bool(table.holds[row]) is holds
    if equality is not None:
        assert bool(table.equality[row]) is equality


class TestCatalogStructure:
    def test_partition(self):
        assert applicable_ids("vertical") == ("V1", "V2", "H1", "CRV1", "CRH1", "CMB1")
        assert applicable_ids("horizontal") == ("V3", "H2", "CRV2", "CRH2", "CMB2")
        assert set(applicable_ids("vertical")) | set(applicable_ids("horizontal")) == set(
            THEOREM_IDS
        )

    def test_unknown_id_rejected(self):
        with pytest.raises(RejectedInputError):
            required_xi_case("V9")

    def test_theorem_ids_are_known_distinct_and_at_least_one(self):
        # the one rule for ids, from the command line's text or a library tuple
        assert parse_theorem_ids(" V1, ,CRH1 ") == ("V1", "CRH1")
        assert parse_theorem_ids(["V3"]) == ("V3",)
        with pytest.raises(RejectedInputError, match=r"^unknown theorem id: V9$"):
            parse_theorem_ids("V1,V9")
        for ids in ("V1,V1", ",", ("V1", "V1"), ()):
            with pytest.raises(RejectedInputError) as err:
                parse_theorem_ids(ids)
            assert str(err.value) == f"theorem ids must be distinct and at least one, got {ids!r}"

    def test_case_gating(self, vx_analysis, hx_analysis):
        with pytest.raises(RejectedInputError):
            evaluate_theorem(vx_analysis, "V3")
        with pytest.raises(RejectedInputError):
            evaluate_theorem(hx_analysis, "V1")


class TestVerticalXiFrozen:
    def test_v1_first(self, vx_analysis):
        tab = only(evaluate(vx_analysis, "V1"))
        check(tab, 2.0, 1.0, 1.0)
        assert tab.equality_class == "totally_geodesic"
        assert abs(tab.equality_defect[0] - 1.0) < TOL

    def test_v1_all_probes_includes_reeb(self, vx_analysis):
        tab = evaluate(vx_analysis, "V1", probe_mode="all")
        assert tab.slack.shape == (3,)
        check(tab, 2.0, 1.0, 1.0, row=0)
        check(tab, 2.0, 1.0, 1.0, row=1)
        check(tab, 4.0, 2.0, 2.0, row=2)
        calc = vx_analysis.calc
        xi = calc.state.contact.xi[0]
        unit_xi = xi / np.sqrt(calc.pairings(xi[None], xi[None])[0])
        np.testing.assert_allclose(tab.probe_vertical[2], unit_xi, atol=1e-9)

    def test_v2(self, vx_analysis):
        check(only(evaluate(vx_analysis, "V2")), 8.0, 4.0, 4.0, equality=False)

    def test_h1_equality(self, vx_analysis):
        tab = only(evaluate(vx_analysis, "H1"))
        check(tab, 0.0, 0.0, 0.0, equality=True)
        assert tab.equality_class == "integrable"
        assert tab.equality_defect[0] < 1e-9

    def test_crv1(self, vx_analysis):
        tab = only(evaluate(vx_analysis, "CRV1"))
        check(tab, 2.0, 1.0, 1.0)
        assert tab.equality_class == "chen_t"

    def test_crh1_both_variants_equal(self, vx_analysis):
        tab = evaluate(vx_analysis, "CRH1")
        assert list(tab.variant) == [name for name, _ in CRH1_VARIANTS]
        assert tab.equality_class == "chen_a"
        for row in range(len(tab.variant)):
            check(tab, 0.0, 0.0, 0.0, equality=True, row=row)
            assert tab.equality_defect[row] < 1e-9

    def test_cmb1(self, vx_analysis):
        tab = only(evaluate(vx_analysis, "CMB1"))
        check(tab, -3.0, 6.0, 9.0)
        assert tab.probe_vertical is not None and tab.probe_horizontal is not None

    def test_random_probes_hold(self, vx_analysis):
        rng = np.random.default_rng(7)
        for tid in ("V1", "CRV1", "CMB1"):
            tab = evaluate(vx_analysis, tid, probe_mode="random:4", rng=rng)
            assert tab.slack.shape == (4,)
            for slack in tab.slack:
                assert slack >= -1e-9

    @pytest.mark.parametrize(
        "mode", ["random:+3", "random: 3", "random:3 ", "random:1_0", "random:\u0663", "random:0"]
    )
    def test_probe_mode_outside_the_grammar_is_rejected(self, vx_analysis, mode, capsys):
        with pytest.raises(RejectedInputError):
            evaluate_theorem(vx_analysis, "V1", probe_mode=mode)
        assert main(["theorems", "--points", "2", "--probe", mode]) == 2
        assert "--probe expects first, all, or random:<k>" in capsys.readouterr().err

    def test_bad_probe_mode(self, vx_analysis):
        with pytest.raises(RejectedInputError):
            evaluate_theorem(vx_analysis, "V1", probe_mode="random:zero")
        with pytest.raises(RejectedInputError):
            evaluate_theorem(vx_analysis, "V1", probe_mode="middle")


class TestHorizontalXiFrozen:
    def test_v3_equality(self, hx_analysis):
        tab = only(evaluate(hx_analysis, "V3"))
        check(tab, 0.0, 0.0, 0.0, equality=True)
        assert tab.equality_defect[0] < 1e-9

    def test_h2_violated(self, hx_analysis):
        tab = only(evaluate(hx_analysis, "H2"))
        check(tab, 16.0, 4.0, -12.0, holds=False)

    def test_crv2_equality(self, hx_analysis):
        tab = only(evaluate(hx_analysis, "CRV2"))
        check(tab, 0.0, 0.0, 0.0, equality=True)

    def test_crh2_violated(self, hx_analysis):
        tab = only(evaluate(hx_analysis, "CRH2"))
        check(tab, 4.0, 1.0, -3.0, holds=False)

    def test_cmb2(self, hx_analysis):
        tab = only(evaluate(hx_analysis, "CMB2"))
        check(tab, 0.0, 3.0, 3.0)


class TestReebFiberFrozen:
    def test_v1_reeb_probe(self, reeb_analysis):
        tab = only(evaluate(reeb_analysis, "V1"))
        check(tab, 0.0, 0.0, 0.0)

    def test_v2_equality(self, reeb_analysis):
        check(only(evaluate(reeb_analysis, "V2")), 0.0, 0.0, 0.0, equality=True)

    def test_h1(self, reeb_analysis):
        check(only(evaluate(reeb_analysis, "H1")), -24.0, -12.0, 12.0)

    def test_crv1_equality(self, reeb_analysis):
        check(only(evaluate(reeb_analysis, "CRV1")), 0.0, 0.0, 0.0, equality=True)

    def test_crh1_variant_split(self, reeb_analysis):
        tab = evaluate(reeb_analysis, "CRH1")
        row = {name: i for i, name in enumerate(tab.variant)}
        check(tab, -6.0, -3.0, 3.0, row=row["kappa=3/4"])
        check(tab, -6.0, -1.5, 4.5, row=row["kappa=3/8"])

    def test_cmb1_violated_at_reeb_probe(self, reeb_analysis):
        # the combined bound fails on this model: 1 <= -7 is false
        tab = only(evaluate(reeb_analysis, "CMB1"))
        check(tab, 1.0, -7.0, -8.0, holds=False)


class TestScans:
    def test_scan_default_ids_vertical(self):
        sub = resolve_model("vertical-xi")
        pts = [PT, np.array([1.1, 0.5, -0.8, 1.3, -0.6])]
        scans = scan_theorems(blocks_of_one(sub, pts))
        assert set(scans) == set(applicable_ids("vertical"))
        assert scans["V2"].points_checked == 2
        assert scans["V2"].violations == 0
        assert abs(scans["V2"].min_slack - 4.0) < TOL
        assert scans["H1"].equalities == 2
        crh1 = scans["CRH1"]
        assert crh1.variant_tallies is not None
        for name, _ in CRH1_VARIANTS:
            assert crh1.variant_tallies[name]["checked"] == 2
            assert crh1.variant_tallies[name]["violations"] == 0

    def test_scan_counts_violations(self, hx_analysis):
        scans = scan_theorems([hx_analysis], theorem_ids=("H2", "CRH2", "V3"))
        assert scans["H2"].violations == 1
        assert abs(scans["H2"].min_slack + 12.0) < TOL
        np.testing.assert_allclose(scans["H2"].argmin_point, H_PT)
        assert scans["CRH2"].violations == 1
        assert scans["V3"].violations == 0

    def test_scan_rejects_mismatched_ids(self, vx_analysis):
        with pytest.raises(RejectedInputError):
            scan_theorems([vx_analysis], theorem_ids=("V3",))
        with pytest.raises(RejectedInputError):
            scan_theorems([vx_analysis], theorem_ids=("V9",))
        with pytest.raises(RejectedInputError, match="must be distinct"):
            scan_theorems([vx_analysis], theorem_ids=("V1", "V1"))

    def test_scan_empty_points(self):
        with pytest.raises(EmptySampleError):
            scan_theorems([])

    @pytest.mark.parametrize("ids", [("V1", "V1"), ("V1", "CRH1", "V1"), ()])
    def test_scan_rejects_repeated_or_no_ids(self, vx_analysis, ids):
        # a repeated id would count each point's rows twice
        with pytest.raises(RejectedInputError):
            scan_theorems([vx_analysis], theorem_ids=ids)

    def test_scan_without_rng_draws_new_probes_at_every_point_and_id(self):
        sub = resolve_model("vertical-xi")
        pts = (PT, np.array([1.1, 0.5, -0.8, 1.3, -0.6]))
        analyses = blocks_of_one(sub, pts)
        scans = scan_theorems(analyses, ("V1", "CRV1"), "random:2")
        draws = []
        for tid in ("V1", "CRV1"):
            assert scans[tid].records == 4
            for k, analysis in enumerate(analyses):
                calc = analysis.calc
                probes = scans[tid].tables[k].probe_vertical
                # frame coefficients of the two probes at this point
                uv = calc.frame.vert_values[:, None]
                draws.append(calc.pairings(probes[:, :, None], uv)[0])
        for a in range(len(draws)):
            for b in range(a):
                assert not np.allclose(draws[a], draws[b], atol=1e-6)


def _sample_blocks(model, points):
    sub = (
        load_custom_model(Path(MODELS_DIR, "reeb_fiber.json").read_bytes())
        if model == "reeb_fiber"
        else resolve_model(model)
    )
    pts = sample_submersion_points(sub, SampleConfig(points=points, seed=42))
    return analysis_blocks(sub, pts)


class TestProbeRicci:
    """With ``first`` and ``all`` probes every probe vector is a frame
    vector, so a scan reads each probe's Ricci value from the block
    analysis (``ric_hat``, ``ric_star``) and evaluates none; random probes
    evaluate them per id on the drawn vectors."""

    # ids probing a vertical, and a horizontal, vector of each model
    PROBED = {"vertical-xi": (3, 2), "horizontal-xi": (2, 2), "reeb_fiber": (3, 2)}

    @pytest.mark.parametrize("mode", ["first", "all", "random:2"])
    @pytest.mark.parametrize("model", sorted(PROBED))
    def test_calls_per_block(self, model, mode, monkeypatch):
        blocks = _sample_blocks(model, 12)  # blocks of 10 and 2 points
        calls = {"hat": 0, "star": 0}

        def counted(kind, fn):
            def count(calc, probes):
                calls[kind] += 1
                return fn(calc, probes)

            return count

        monkeypatch.setattr(theorems, "ric_hat_probes", counted("hat", ric_hat_probes))
        monkeypatch.setattr(theorems, "ric_star_probes", counted("star", ric_star_probes))
        scan_theorems(blocks, probe_mode=mode, rng=np.random.default_rng(3))
        per_block = (0, 0) if mode in ("first", "all") else self.PROBED[model]
        assert (calls["hat"], calls["star"]) == tuple(len(blocks) * n for n in per_block)

    @pytest.mark.parametrize("mode", ["first", "all"])
    @pytest.mark.parametrize("model", sorted(PROBED))
    def test_values_equal_those_on_the_probes_bitwise(self, model, mode):
        blocks = _sample_blocks(model, 12)
        scans = scan_theorems(blocks, probe_mode=mode)
        xi_case = blocks[0].calc.sub.xi_case
        hat_id, star_id = ("CRV1", "CRH1") if xi_case == "vertical" else ("CRV2", "CRH2")
        for k, block in enumerate(blocks):
            frame = block.calc.frame
            want = ric_hat_probes(block.calc, frame.vert_values)
            assert block.ric_hat.tobytes() == want.tobytes()
            want = ric_star_probes(block.calc, frame.horiz_values)
            assert block.ric_star.tobytes() == want.tobytes()
            crv, crh = scans[hat_id].tables[k], scans[star_id].tables[k]
            want = ric_hat_probes(block.calc, crv.probe_vertical)
            assert np.asarray(crv.lhs).tobytes() == want.tobytes()
            want = ric_star_probes(block.calc, crh.probe_horizontal)
            lhs = crh.lhs[..., 0] if crh.variant else crh.lhs
            assert np.ascontiguousarray(lhs).tobytes() == want.tobytes()


NAN = float("nan")
VARIANT_NAMES = tuple(name for name, _ in CRH1_VARIANTS)

# slacks per point, rows in evaluation order; CRH1 rows alternate variants
REDUCTION_CASES = {
    "ties across points": ("V1", [[1.0, 0.5], [0.5, 2.0], [0.5]]),
    "negative zero after zero": ("V2", [[0.0], [-0.0], [3.0]]),
    "negative zero first": ("V2", [[-0.0], [0.0]]),
    "nan first": ("CRV1", [[NAN, -1.0], [-2.0, 0.0]]),
    "nan later": ("CRV1", [[1.0, 2.0], [NAN, 0.5], [0.5]]),
    "violations and equalities": ("H2", [[-12.0, 1e-10], [-1e-10, -1e-8]]),
    "crh1 variants": (
        "CRH1",
        [[0.0, 4.5, -0.0, 3.0], [NAN, -0.0, 0.0, 1.0], [-3.0, 7.0]],
    ),
    "crh1 nan first": ("CRH1", [[NAN, NAN, 1.0, 2.0], [0.5, -1.0]]),
}


def _hand_built(theorem_id, slacks_per_point):
    """One table per point 0, 1, ..., each a block of one, with the given
    slacks; lhs is the slack and rhs 0, and holds/equality follow the
    engine's rules."""
    tables = []
    for k, slacks in enumerate(slacks_per_point):
        crh1 = theorem_id == "CRH1"
        slack = np.array(slacks).reshape((1, -1, 2) if crh1 else (1, -1))
        variant = VARIANT_NAMES if crh1 else None
        tables.append(
            TheoremTable(
                theorem_id=theorem_id,
                point=np.full((1, 5), float(k)),
                variant=variant,
                equality_class="chen_a",
                probe_vertical=None,
                probe_horizontal=None,
                lhs=slack,
                rhs=np.zeros_like(slack),
                slack=slack,
                holds=slack >= SLACK_FLOOR,
                equality=np.abs(slack) <= EQUALITY_TOL,
                equality_defect=np.zeros_like(slack),
            )
        )
    return tables


class TestReductionRule:
    """``scan_from_records`` against Python's ``min`` over the flattened
    rows: the first row in (point, probe, variant) order wins a tie, so -0.0
    does not beat an earlier 0.0, and a NaN slack is the minimum only when it
    is the very first row."""

    @pytest.mark.parametrize("case", sorted(REDUCTION_CASES))
    def test_scan_from_records_reduces_as_python_min(self, case):
        tid, slacks_per_point = REDUCTION_CASES[case]
        rows = [
            (k, VARIANT_NAMES[i % 2] if tid == "CRH1" else None, slack)
            for k, slacks in enumerate(slacks_per_point)
            for i, slack in enumerate(slacks)
        ]
        scan = scan_from_records(
            tid, _hand_built(tid, slacks_per_point), len(slacks_per_point)
        )
        worst = min(rows, key=lambda row: row[2])
        assert np.asarray(scan.min_slack).tobytes() == np.asarray(worst[2]).tobytes()
        assert scan.argmin_point.tolist() == [float(worst[0])] * 5
        assert scan.points_checked == len(slacks_per_point)
        assert scan.records == len(rows)
        assert scan.violations == sum(1 for row in rows if not row[2] >= SLACK_FLOOR)
        assert scan.equalities == sum(1 for row in rows if abs(row[2]) <= EQUALITY_TOL)
        if tid != "CRH1":
            assert scan.variant_tallies is None
            return
        assert list(scan.variant_tallies) == list(VARIANT_NAMES)
        for name in VARIANT_NAMES:
            sub = [row[2] for row in rows if row[1] == name]
            tally = scan.variant_tallies[name]
            assert tally["checked"] == len(sub)
            assert tally["violations"] == sum(1 for s in sub if not s >= SLACK_FLOOR)
            assert tally["equalities"] == sum(1 for s in sub if abs(s) <= EQUALITY_TOL)
            want = np.asarray(min(sub)).tobytes()
            assert np.asarray(tally["min_slack"]).tobytes() == want
            assert all(type(v) is int for k, v in tally.items() if k != "min_slack")
        assert type(scan.violations) is int and type(scan.equalities) is int


class TestFrameCoherence:
    def test_slack_multiset_invariant_under_block_reorder(self):
        base = resolve_model("vertical-xi")
        v1, v2, xi = base.vertical_fields
        h1, h2 = base.horizontal_fields
        swapped = base._replace(
            vertical_fields=(v2, v1, xi), horizontal_fields=(h2, h1)
        )
        a0 = block_of_one(base, PT)
        a1 = block_of_one(swapped, PT)
        for tid in applicable_ids("vertical"):
            s0 = np.sort(evaluate(a0, tid, "all").slack)
            s1 = np.sort(evaluate(a1, tid, "all").slack)
            np.testing.assert_allclose(s0, s1, atol=1e-8)


coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)


class TestSampledInvariants:
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.tuples(coord, coord, coord, coord, coord))
    def test_vertical_xi_bounds_hold_where_submersion_is_exact(self, pt):
        # this model is an exact metric submersion everywhere, so every
        # applicable bound must hold at every sampled point
        sub = resolve_model("vertical-xi")
        pt = np.asarray(pt)
        block = block_of_one(sub, pt)
        chk = verify_riemannian_submersion(block.calc)
        assume(chk.length_residual[0] <= 1e-8)
        for tid in applicable_ids("vertical"):
            for slack in evaluate(block, tid).slack:
                assert slack >= -1e-9, (tid, slack)

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(coord, coord, coord, coord, coord))
    def test_horizontal_xi_has_no_exact_point(self, pt):
        # the same qualified claim is vacuous on this model: no admissible
        # point pushes the frame down isometrically
        sub = resolve_model("horizontal-xi")
        pt = np.asarray(pt)
        x1, x2, y1, y2 = pt[0], pt[1], pt[2], pt[3]
        assume((x1 + y1) ** 2 + (x2 + y2) ** 2 > 2.5)
        chk = verify_riemannian_submersion(calc_of_one(sub, pt))
        assert chk.length_residual[0] > 1e-8
