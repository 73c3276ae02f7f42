"""Point analyses and identity residuals against the frame oracle.

The oracle computes every aggregate (block scalar curvatures, block Ricci
values, tensor norms, divergence trace) in the constant orthonormal frame;
the production path goes through jets, Christoffel symbols, and the adapted
Gram-Schmidt frame.  Agreement is required at several chart points.
"""

import os
from pathlib import Path

import numpy as np

import frame_oracle as fo
from slices import block_of_one, calc_of_one, point_residuals
from oneill_lab.cli import resolve_model
from oneill_lab.invariants import (
    _hat_star_tables,
    fiber_curvature_hat,
    horizontal_curvature_star,
    ric_hat_probes,
    ric_star_probes,
)
from oneill_lab.riemannian import scalar_curvature
from oneill_lab.submersion import load_custom_model

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")

POINTS = [
    np.array([0.3, -0.7, 0.9, 0.4, 0.2]),
    np.array([1.1, 0.5, -0.8, 1.3, -0.6]),
]

H_POINTS = [
    np.array([0.9, 0.8, 1.0, 0.9, 0.3]),
    np.array([1.2, -0.3, 0.7, 1.6, -0.5]),
]

TOL = 1e-8
CURV_TOL = 1e-6


def ric_hat(calc):
    """Vertical-block Ricci values on the vertical frame vectors of a block
    of one point."""
    return ric_hat_probes(calc, calc.frame.vert_values)[0]


def ric_star(calc):
    """Horizontal-block Ricci values on the horizontal frame vectors of a
    block of one point."""
    return ric_star_probes(calc, calc.frame.horiz_values)[0]


class TestVerticalXiPacket:
    def test_aggregates_match_oracle(self):
        sub = resolve_model("vertical-xi")
        split = fo.vertical_xi_split()
        for pt in POINTS:
            an = block_of_one(sub, pt)
            calc, data = an.calc, an.data
            assert abs(2.0 * an.tau_hat[0] - 2.0 * split.tau_hat()) < CURV_TOL
            assert abs(2.0 * an.tau_star[0] - 2.0 * split.tau_star()) < CURV_TOL
            oracle_hat = [split.ric_hat(u) for u in split.vert]
            oracle_star = [split.ric_star(x) for x in split.horiz]
            np.testing.assert_allclose(ric_hat(calc), oracle_hat, atol=CURV_TOL)
            np.testing.assert_allclose(ric_star(calc), oracle_star, atol=CURV_TOL)
            assert abs(an.delta_n[0] - split.delta_n()) < CURV_TOL
            assert abs(data.trace_phi_b[0] - split.trace_phi_b()) < TOL
            two_tau = scalar_curvature(calc.conn.metric, calc.state.curvature)
            assert abs(two_tau[0] / 2.0 - (-2.0)) < CURV_TOL
            assert abs(data.n_norm_sq[0]) < TOL
            assert abs(data.sum_t_sq[0] - 4.0) < TOL
            assert abs(data.sum_a_sq[0]) < TOL

    def test_frozen_values(self):
        sub = resolve_model("vertical-xi")
        an = block_of_one(sub, POINTS[0])
        assert abs(2.0 * an.tau_hat[0] - 8.0) < CURV_TOL
        assert abs(an.tau_star[0]) < CURV_TOL
        np.testing.assert_allclose(ric_hat(an.calc), [2.0, 2.0, 4.0], atol=CURV_TOL)
        np.testing.assert_allclose(ric_star(an.calc), [0.0, 0.0], atol=CURV_TOL)
        assert abs(an.data.trace_phi_b[0] - (-2.0)) < TOL

    def test_identity_residuals_clean(self):
        sub = resolve_model("vertical-xi")
        for pt in POINTS:
            res = point_residuals(sub, pt)
            assert res["T1"] < TOL
            for key in ("T4", "S1", "S2", "S3", "R1", "R2", "gauss3"):
                assert res[key] < CURV_TOL, key

    def test_ric_probes_accept_arbitrary_unit_vectors(self):
        # probe Ricci values on frame vectors reproduce the table columns
        sub = resolve_model("vertical-xi")
        calc = calc_of_one(sub, POINTS[0])
        hat, star = _hat_star_tables(calc)
        ric_hat_table, ric_star_table = hat[0].sum(axis=0), star[0].sum(axis=0)
        for k in range(calc.r):
            u = calc.frame.vert_values[:, k, None]
            assert abs(ric_hat_probes(calc, u)[0, 0] - ric_hat_table[k]) < CURV_TOL
        for t in range(calc.n):
            x = calc.frame.horiz_values[:, t, None]
            assert abs(ric_star_probes(calc, x)[0, 0] - ric_star_table[t]) < CURV_TOL

    def test_star_curvature_vanishes_on_flat_base(self):
        # horizontal block pushes down to a flat base, so the block
        # curvature must vanish on every horizontal 4-tuple
        sub = resolve_model("vertical-xi")
        calc = calc_of_one(sub, POINTS[1])
        xs = calc.frame.horiz_values
        val = horizontal_curvature_star(calc, xs[:, 0], xs[:, 1])
        assert abs(val[0]) < 1e-7


class TestHorizontalXiPacket:
    def test_aggregates_match_oracle(self):
        sub = resolve_model("horizontal-xi")
        split = fo.horizontal_xi_split()
        for pt in H_POINTS:
            an = block_of_one(sub, pt)
            calc, data = an.calc, an.data
            assert abs(2.0 * an.tau_hat[0] - 2.0 * split.tau_hat()) < CURV_TOL
            assert abs(2.0 * an.tau_star[0] - 2.0 * split.tau_star()) < CURV_TOL
            oracle_hat = [split.ric_hat(u) for u in split.vert]
            oracle_star = [split.ric_star(x) for x in split.horiz]
            np.testing.assert_allclose(ric_hat(calc), oracle_hat, atol=CURV_TOL)
            np.testing.assert_allclose(ric_star(calc), oracle_star, atol=CURV_TOL)
            assert abs(data.sum_a_sq[0] - 4.0) < TOL
            assert abs(data.sum_t_sq[0]) < TOL
            assert abs(data.trace_phi_b[0] - (-2.0)) < TOL

    def test_known_residual_defects(self):
        # the scalar identity with the xi-horizontal constant terms misses
        # by 6, the exchange-based scalar identity by 40, and the mixed
        # exchange identity by exactly 2 on this model, at every point
        sub = resolve_model("horizontal-xi")
        for pt in H_POINTS:
            res = point_residuals(sub, pt)
            assert abs(res["S1"] - 6.0) < CURV_TOL
            assert abs(res["S3"] - 40.0) < CURV_TOL
            assert abs(res["gauss3"] - 2.0) < CURV_TOL
            assert res["T1"] < TOL
            for key in ("T4", "S2", "R1", "R2"):
                assert res[key] < CURV_TOL, key


class TestReebFiberPacket:
    def test_aggregates_and_residuals(self):
        sub = load_custom_model(Path(MODELS_DIR, "reeb_fiber.json").read_bytes())
        split = fo.reeb_split()
        for pt in POINTS:
            an = block_of_one(sub, pt)
            assert abs(2.0 * an.tau_hat[0]) < CURV_TOL
            assert abs(2.0 * an.tau_star[0] - (-24.0)) < CURV_TOL
            assert abs(2.0 * an.tau_star[0] - 2.0 * split.tau_star()) < CURV_TOL
            oracle_star = [split.ric_star(x) for x in split.horiz]
            np.testing.assert_allclose(ric_star(an.calc), oracle_star, atol=CURV_TOL)
            assert abs(an.delta_n[0]) < CURV_TOL
            assert abs(an.data.trace_phi_b[0]) < TOL
            assert abs(an.data.sum_a_sq[0] - 4.0) < TOL
            res = point_residuals(sub, pt)
            assert res["T1"] < TOL
            for key in ("T4", "S1", "S2", "S3", "R1", "R2", "gauss3"):
                assert res[key] < CURV_TOL, key


class TestMixedExchange:
    def test_fiber_curvature_slots(self):
        # direct check of one exchange value against the oracle
        sub = resolve_model("vertical-xi")
        calc = calc_of_one(sub, POINTS[0])
        split = fo.vertical_xi_split()
        us = calc.frame.vert_values
        got = fiber_curvature_hat(calc, us[:, 0], us[:, 1])[0]
        want = split.gauss_hat(split.vert[0], split.vert[1], split.vert[1], split.vert[0])
        assert abs(got - want) < CURV_TOL

    def test_mixed_residual_values(self):
        vx, hx = resolve_model("vertical-xi"), resolve_model("horizontal-xi")
        assert point_residuals(vx, POINTS[0])["gauss3"] < CURV_TOL
        assert abs(point_residuals(hx, H_POINTS[0])["gauss3"] - 2.0) < CURV_TOL

