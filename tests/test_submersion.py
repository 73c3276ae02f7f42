"""Submersion layer: frames, fundamental tensors, structural checks.

Expected values come from tests/frame_oracle.py, an independent
constant-coefficient engine over the global orthonormal frame of the
five-dimensional total space. Oracle vectors live in frame coefficients;
``frame_chart_matrix`` converts them to chart components for comparison.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import frame_oracle as fo
from slices import calc_of_one, point_block
from oneill_lab.cli import resolve_model
from oneill_lab.errors import (
    DegenerateFrameError,
    OutOfDomainError,
    RejectedInputError,
)
from oneill_lab.jets import seed_block
from oneill_lab.riemannian import model_jets
from oneill_lab.submersion import (
    SubmersionModel,
    adapted_frame_at,
    load_custom_model,
    tensors_from_calculus,
    verify_riemannian_submersion,
    verify_structure_lemmas,
)

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")
REEB = Path(MODELS_DIR, "reeb_fiber.json")

POINTS = [
    np.array([0.3, -0.7, 0.9, 0.4, 0.2]),
    np.array([1.1, 0.5, -0.8, 1.3, -0.6]),
    np.array([-0.4, 0.9, 1.7, -1.2, 0.8]),
]

# admissible for the horizontal-xi model: (x1+y1)^2 + (x2+y2)^2 > 2.5
H_POINTS = [
    np.array([0.9, 0.8, 1.0, 0.9, 0.3]),
    np.array([1.2, -0.3, 0.7, 1.6, -0.5]),
    np.array([-0.2, 1.1, 1.9, 0.6, 0.4]),
]


def frame_chart_matrix(coords):
    """Rows are the chart components of E1, E2, P1, P2, Z at ``coords``."""
    y1, y2 = coords[2], coords[3]
    return np.array(
        [
            [0, 0, 2, 0, 0],
            [0, 0, 0, 2, 0],
            [2, 0, 0, 0, 2 * y1],
            [0, 2, 0, 0, 2 * y2],
            [0, 0, 0, 0, 2],
        ],
        dtype=float,
    )


def to_chart(coeffs, coords):
    return np.asarray(coeffs) @ frame_chart_matrix(coords)


def frame_at(sub, p):
    return adapted_frame_at(sub, point_block(sub, p))


def submersion_check(sub, p):
    return verify_riemannian_submersion(calc_of_one(sub, p))


def tensors_at(sub, p):
    return tensors_from_calculus(calc_of_one(sub, p))


def c_norms_sq(calc):
    """|C X_s|^2 on the horizontal frame: the squared lengths of the
    horizontal parts of phi X_s."""
    c_part = calc.h_project_values(calc.phi_of(calc.frame.horiz_values))
    return calc.pairings(c_part, c_part)


def lemmas_at(sub, p):
    calc = calc_of_one(sub, p)
    lemmas = verify_structure_lemmas(calc, tensors_from_calculus(calc))
    return {key: val[0] for key, val in lemmas.items()}


def gram(calc, rows):
    g = calc.conn.metric.value[0]
    return rows @ g @ rows.T


class TestAdaptedFrame:
    def test_vertical_xi_frame_orthonormal(self):
        sub = resolve_model("vertical-xi")
        for p in POINTS:
            calc = calc_of_one(sub, p)
            allv = np.vstack([calc.frame.vert_values[0], calc.frame.horiz_values[0]])
            assert np.max(np.abs(gram(calc, allv) - np.eye(5))) < 1e-12

    def test_reeb_field_kept_in_last_vertical_slot(self):
        sub = resolve_model("vertical-xi")
        frame = frame_at(sub, POINTS[0])
        assert np.allclose(frame.vert_values[0, -1], [0, 0, 0, 0, 2], atol=1e-14)

    def test_frame_matches_declared_normalization(self):
        # declared blocks are already orthogonal, so Gram-Schmidt only rescales
        sub = resolve_model("vertical-xi")
        p = POINTS[1]
        frame = frame_at(sub, p)
        s2 = 1.0 / np.sqrt(2.0)
        expected_u0 = to_chart([s2, 0, -s2, 0, 0], p)
        expected_x0 = to_chart([s2, 0, s2, 0, 0], p)
        assert np.allclose(frame.vert_values[0, 0], expected_u0, atol=1e-13)
        assert np.allclose(frame.horiz_values[0, 0], expected_x0, atol=1e-13)

    def test_frame_jets_are_differentiable_fields(self):
        # finite-difference the unit frame along a chart direction
        sub = resolve_model("vertical-xi")
        p = POINTS[0]
        h = 1e-6
        f0 = frame_at(sub, p)
        shifted = p.copy()
        shifted[2] += h
        f1 = frame_at(sub, shifted)
        fd = (f1.horiz_values[0, 0] - f0.horiz_values[0, 0]) / h
        grads = f0.jets.gradient[0, f0.r, :, 2]
        assert np.max(np.abs(fd - grads)) < 1e-5

    def test_dependent_fields_rejected(self):
        sub = resolve_model("vertical-xi")
        bad = SubmersionModel(
            name="bad",
            total=sub.total,
            base=sub.base,
            projection=sub.projection,
            vertical_fields=(
                sub.vertical_fields[0],
                sub.vertical_fields[0],
                sub.vertical_fields[2],
            ),
            horizontal_fields=sub.horizontal_fields,
            xi_case="vertical",
        )
        with pytest.raises(DegenerateFrameError):
            frame_at(bad, POINTS[0])

    def test_block_count_must_span(self):
        sub = resolve_model("vertical-xi")
        with pytest.raises(RejectedInputError):
            SubmersionModel(
                name="short",
                total=sub.total,
                base=sub.base,
                projection=sub.projection,
                vertical_fields=sub.vertical_fields[:2],
                horizontal_fields=sub.horizontal_fields,
                xi_case="vertical",
            )


class TestSubmersionChecks:
    def test_vertical_xi_is_riemannian_submersion(self):
        sub = resolve_model("vertical-xi")
        for p in POINTS:
            chk = submersion_check(sub, p)
            assert chk.kernel_residual[0] < 1e-12
            assert chk.length_residual[0] < 1e-12
            assert chk.base_pd[0]

    def test_differential_values(self):
        sub = resolve_model("vertical-xi")
        p = POINTS[0]
        proj = model_jets(sub.projection, seed_block(p[None], order=1))[0]
        base_point, jac = proj.value, proj.gradient
        assert np.allclose(base_point, [p[0] + p[2], p[1] + p[3]])
        assert np.allclose(jac, [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]])

    def test_horizontal_xi_length_defect_scales_with_x1y1(self):
        sub = resolve_model("horizontal-xi")
        p = np.array([1.0, 0.0, 0.8, 0.0, 0.3])  # x1*y1 = 0.8
        chk = submersion_check(sub, p)
        assert chk.kernel_residual[0] < 1e-12
        assert abs(chk.length_residual[0] - 2.0 * abs(p[0] * p[2])) < 1e-10
        assert not chk.base_pd[0]

    def test_horizontal_xi_full_defect_closed_form(self):
        # Gram defect entries: diagonal 2*x_i*y_i, pair cross x1*x2+y1*y2,
        # Reeb cross (y_i-x_i)/sqrt(2); they cannot all vanish on the locus
        sub = resolve_model("horizontal-xi")
        for p in H_POINTS:
            x1, x2, y1, y2 = p[0], p[1], p[2], p[3]
            expected = max(
                2 * abs(x1 * y1),
                2 * abs(x2 * y2),
                abs(x1 * x2 + y1 * y2),
                abs(y1 - x1) / np.sqrt(2),
                abs(y2 - x2) / np.sqrt(2),
            )
            chk = submersion_check(sub, p)
            assert abs(chk.length_residual[0] - expected) < 1e-10
            assert not chk.base_pd[0]

    def test_horizontal_xi_outside_locus_raises(self):
        sub = resolve_model("horizontal-xi")
        with pytest.raises(OutOfDomainError):
            submersion_check(sub, np.array([0.0, 0.0, 0.1, 0.0, 0.0]))


class TestOneillTensors:
    def test_vertical_xi_matches_oracle(self):
        sub = resolve_model("vertical-xi")
        sp = fo.vertical_xi_split()
        for p in POINTS:
            calc = calc_of_one(sub, p)
            data = tensors_at(sub, p)
            assert np.max(np.abs(data.t_coeff[0] - sp.t_coeff())) < 1e-10
            assert np.max(np.abs(data.a_coeff[0])) < 1e-10
            assert abs(data.sum_t_sq[0] - 4.0) < 1e-10
            assert abs(data.norm_tv_sq[0] - 4.0) < 1e-10
            assert abs(data.norm_ah_sq[0]) < 1e-10
            assert np.max(np.abs(data.n_vec[0])) < 1e-10
            assert abs(data.trace_phi_b[0] + 2.0) < 1e-10
            assert np.max(np.abs(c_norms_sq(calc)[0])) < 1e-10
            eta_vert = calc.eta_of(calc.frame.vert_values)[0]
            assert np.allclose(eta_vert, [0, 0, 1], atol=1e-12)
            assert np.max(np.abs(calc.eta_of(calc.frame.horiz_values)[0])) < 1e-12

    def test_horizontal_xi_matches_oracle(self):
        sub = resolve_model("horizontal-xi")
        sp = fo.horizontal_xi_split()
        for p in H_POINTS:
            calc = calc_of_one(sub, p)
            data = tensors_at(sub, p)
            assert np.max(np.abs(data.a_coeff[0] - sp.a_coeff())) < 1e-10
            assert np.max(np.abs(data.t_coeff[0])) < 1e-10
            assert abs(data.sum_a_sq[0] - 4.0) < 1e-10
            assert abs(data.norm_ah_sq[0] - 4.0) < 1e-10
            assert abs(data.trace_phi_b[0] + 2.0) < 1e-10
            eta_horiz = calc.eta_of(calc.frame.horiz_values)[0]
            assert np.allclose(eta_horiz, [0, 0, 1], atol=1e-12)

    def test_mixed_slots_match_oracle(self):
        sub = resolve_model("vertical-xi")
        sp = fo.vertical_xi_split()
        p = POINTS[2]
        calc = calc_of_one(sub, p)
        for a in range(sp.r):
            for s in range(sp.n):
                uv, xv = calc.frame.vert_values[:, a], calc.frame.horiz_values[:, s]
                got = calc.t_point(uv, xv)[0]
                want = to_chart(sp.t(sp.vert[a], sp.horiz[s]), p)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_nabla_t_matches_oracle(self):
        # first derivative of the fundamental tensor through the jet frames
        for sub, sp, pts in [
            (resolve_model("vertical-xi"), fo.vertical_xi_split(), POINTS),
            (resolve_model("horizontal-xi"), fo.horizontal_xi_split(), H_POINTS),
        ]:
            p = pts[0]
            calc = calc_of_one(sub, p)
            for s in range(sp.n):
                for a in range(sp.r):
                    for b in range(sp.r):
                        got = calc.nabla_t_frame(calc.r + s, a, b)[0]
                        want = to_chart(sp.nabla_t(sp.horiz[s], sp.vert[a], sp.vert[b]), p)
                        assert np.max(np.abs(got - want)) < 1e-8

    def test_nabla_a_matches_oracle(self):
        sub = resolve_model("vertical-xi")
        sp = fo.vertical_xi_split()
        p = POINTS[1]
        calc = calc_of_one(sub, p)
        for a in range(sp.r):
            for s in range(sp.n):
                for t in range(sp.n):
                    got = calc.nabla_a_frame(a, s, t)[0]
                    want = to_chart(sp.nabla_a(sp.vert[a], sp.horiz[s], sp.horiz[t]), p)
                    assert np.max(np.abs(got - want)) < 1e-8

    def test_delta_n_zero_on_builtin_models(self):
        for sub, pts in [
            (resolve_model("vertical-xi"), POINTS),
            (resolve_model("horizontal-xi"), H_POINTS),
        ]:
            for p in pts[:2]:
                assert abs(calc_of_one(sub, p).delta_n()[0]) < 1e-8

    def test_bc_decompose_vertical_xi(self):
        # phi of the first horizontal frame vector is vertical here: its
        # vertical part B is minus the first vertical frame vector and its
        # horizontal part C vanishes
        sub = resolve_model("vertical-xi")
        p = POINTS[0]
        calc = calc_of_one(sub, p)
        x0 = calc.frame.horiz_values[:, 0]
        w = calc.phi_of(x0)
        b, c = calc.v_project_values(w)[0], calc.h_project_values(w)[0]
        assert np.max(np.abs(c)) < 1e-12
        assert np.max(np.abs(b + calc.frame.vert_values[0, 0])) < 1e-12


class TestStructureLemmas:
    def test_vertical_xi_all_clean(self):
        sub = resolve_model("vertical-xi")
        for p in POINTS:
            res = lemmas_at(sub, p)
            for key, val in res.items():
                assert val < 1e-10, (key, val)

    def test_horizontal_xi_alternation_defect(self):
        sub = resolve_model("horizontal-xi")
        res = lemmas_at(sub, H_POINTS[0])
        assert abs(res["a_alternation"] - 2.0) < 1e-10
        assert res["t_symmetry"] < 1e-10
        assert res["skew_t"] < 1e-10
        assert res["skew_a"] < 1e-10
        assert res["anti_invariance"] < 1e-10
        assert res["c_square"] < 1e-10


class TestCustomModels:
    def test_load_reeb_fiber(self):
        sub = load_custom_model(REEB.read_bytes())
        assert sub.xi_case == "vertical"
        assert len(sub.vertical_fields) == 1 and len(sub.horizontal_fields) == 4
        p = POINTS[0]
        chk = submersion_check(sub, p)
        assert chk.kernel_residual[0] < 1e-12
        assert chk.length_residual[0] < 1e-12
        assert chk.base_pd[0]

    def test_reeb_fiber_tensors_match_oracle(self):
        sub = load_custom_model(REEB.read_bytes())
        sp = fo.reeb_split()
        for p in POINTS[:2]:
            calc = calc_of_one(sub, p)
            data = tensors_at(sub, p)
            assert np.max(np.abs(data.t_coeff[0])) < 1e-10
            assert np.max(np.abs(data.a_coeff[0] - sp.a_coeff())) < 1e-10
            assert abs(data.norm_ah_sq[0] - 4.0) < 1e-10
            assert abs(data.trace_phi_b[0]) < 1e-10
            assert np.max(np.abs(c_norms_sq(calc)[0] - 1.0)) < 1e-10
            assert abs(calc.delta_n()[0]) < 1e-10

    def test_reeb_fiber_lemmas_clean(self):
        sub = load_custom_model(REEB.read_bytes())
        res = lemmas_at(sub, POINTS[1])
        for key, val in res.items():
            assert val < 1e-10, (key, val)

    def test_bad_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/9", "name": "x"}')
        with pytest.raises(RejectedInputError):
            load_custom_model(bad.read_bytes())

    def test_missing_key_rejected(self, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text('{"schema": "oneill-lab-model/1", "name": "x"}')
        with pytest.raises(RejectedInputError):
            load_custom_model(bad.read_bytes())
