"""Connection and curvature against closed-form and finite-difference oracles."""

import math

import numpy as np
import pytest

from oneill_lab.errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    OutOfDomainError,
)
from oneill_lab.riemannian import (
    ManifoldModel,
    christoffel_at,
    metric_at,
    ricci_from_curvature,
    riemann_at,
    scalar_curvature,
    sectional_curvature,
)

TOL_D1 = 1e-8
TOL_CURV = 1e-7


def _const(c):
    return lambda vs: c


def flat_model(dim=3):
    rows = tuple(
        tuple(_const(1.0 if i == j else 0.0) for j in range(dim)) for i in range(dim)
    )
    return ManifoldModel(name="flat", dim=dim, chart=tuple(f"x{i}" for i in range(dim)), metric=rows)


def polar_model():
    # Euclidean plane in polar coordinates (r, t): g = diag(1, r^2), flat.
    metric = (
        (_const(1.0), _const(0.0)),
        (_const(0.0), lambda vs: vs[0] * vs[0]),
    )
    return ManifoldModel(
        name="polar",
        dim=2,
        chart=("r", "t"),
        metric=metric,
        domain_guard=lambda c: c[0] > 0.1,
    )


def sphere_model():
    # Unit sphere: g = diag(1, sin^2 theta), K = +1.
    import oneill_lab.jets as jets

    def sin2(vs):
        # sin(theta) via series is overkill; theta stays in a safe band so
        # we just go through numpy on the value and build the jet by hand.
        th = vs[0]
        s, c = math.sin(th.value), math.cos(th.value)
        # f = sin^2(th): f' = 2 s c = sin(2th), f'' = 2 cos(2th)
        val = s * s
        grad = math.sin(2 * th.value) * th.gradient
        hess = None
        if th.hessian is not None:
            hess = 2 * math.cos(2 * th.value) * np.outer(th.gradient, th.gradient)
        return jets.ScalarJet(val, grad, hess)

    metric = ((_const(1.0), _const(0.0)), (_const(0.0), sin2))
    return ManifoldModel(name="sphere", dim=2, chart=("th", "ph"), metric=metric)


def bumpy_model(dim=3):
    # g_ij = delta_ij (1 + 0.1 x_i^2) + 0.05 x_i x_j (i != j); SPD near 0.
    def entry(i, j):
        if i == j:
            return lambda vs: 1.0 + 0.1 * vs[i] * vs[i]
        return lambda vs: 0.05 * vs[i] * vs[j]

    rows = tuple(tuple(entry(i, j) for j in range(dim)) for i in range(dim))
    return ManifoldModel(
        name="bumpy", dim=dim, chart=tuple(f"x{i}" for i in range(dim)), metric=rows
    )


# -- flat and closed-form cases ----------------------------------------------


def test_flat_connection_and_curvature_vanish():
    m = flat_model()
    pt = [0.3, -1.2, 2.0]
    conn = christoffel_at(m, pt)
    assert np.max(np.abs(conn.gamma)) == 0.0
    curv = riemann_at(m, pt)
    assert np.max(np.abs(curv.r4)) == 0.0
    assert scalar_curvature(curv) == 0.0


def test_polar_christoffels_closed_form():
    m = polar_model()
    r = 1.7
    conn = christoffel_at(m, [r, 0.4])
    # Gamma^r_tt = -r, Gamma^t_rt = Gamma^t_tr = 1/r, rest 0
    expect = np.zeros((2, 2, 2))
    expect[0, 1, 1] = -r
    expect[1, 0, 1] = expect[1, 1, 0] = 1.0 / r
    assert np.allclose(conn.gamma, expect, atol=1e-12)


def test_polar_is_flat():
    m = polar_model()
    curv = riemann_at(m, [2.3, -0.7])
    assert np.max(np.abs(curv.r4)) < 1e-12


def test_sphere_sectional_is_one():
    m = sphere_model()
    for th in (0.6, 1.1, 2.0):
        k = sectional_curvature(m, [th, 0.3], [1.0, 0.0], [0.0, 1.0])
        assert abs(k - 1.0) < TOL_CURV


def test_sphere_ricci_and_scalar():
    m = sphere_model()
    pt = [1.0, 0.2]
    curv = riemann_at(m, pt)
    ric = ricci_from_curvature(curv)
    # Ric = (n-1) K g = g on the unit 2-sphere; scalar = 2
    assert np.allclose(ric, curv.metric.value, atol=TOL_CURV)
    assert abs(scalar_curvature(curv) - 2.0) < TOL_CURV


# -- guards -------------------------------------------------------------------


def test_domain_guard_raises():
    m = polar_model()
    with pytest.raises(OutOfDomainError):
        metric_at(m, [0.05, 0.0])


def test_non_pd_metric_raises():
    bad = ManifoldModel(
        name="bad",
        dim=2,
        chart=("x", "y"),
        metric=((_const(1.0), _const(2.0)), (_const(2.0), _const(1.0))),
    )
    with pytest.raises(DegenerateMetricError):
        metric_at(bad, [0.0, 0.0])


def test_degenerate_plane_raises():
    m = flat_model()
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(m, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])


# -- finite-difference oracles on the bumpy metric ----------------------------


def _metric_value(model, pt):
    return metric_at(model, pt).value


def test_metric_first_partials_match_fd():
    m = bumpy_model()
    pt = np.array([0.4, -0.3, 0.8])
    g = metric_at(m, pt)
    h = 1e-5
    for a in range(3):
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        fd = (_metric_value(m, up) - _metric_value(m, dn)) / (2 * h)
        assert np.max(np.abs(g.d1[:, :, a] - fd)) < TOL_D1


def test_christoffel_matches_fd_assembly():
    m = bumpy_model()
    pt = np.array([0.4, -0.3, 0.8])
    conn = christoffel_at(m, pt)
    h = 1e-5
    dg = np.zeros((3, 3, 3))
    for a in range(3):
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        dg[:, :, a] = (_metric_value(m, up) - _metric_value(m, dn)) / (2 * h)
    ginv = np.linalg.inv(_metric_value(m, pt))
    expect = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                s = 0.0
                for l in range(3):
                    s += ginv[k, l] * (dg[j, l, i] + dg[i, l, j] - dg[i, j, l])
                expect[k, i, j] = 0.5 * s
    assert np.max(np.abs(conn.gamma - expect)) < TOL_D1


def test_dgamma_matches_fd():
    m = bumpy_model()
    pt = np.array([0.4, -0.3, 0.8])
    conn = christoffel_at(m, pt)
    h = 1e-5
    for a in range(3):
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        fd = (christoffel_at(m, up).gamma - christoffel_at(m, dn).gamma) / (2 * h)
        assert np.max(np.abs(conn.dgamma[:, :, :, a] - fd)) < 1e-6


def test_metric_compatibility():
    # nabla g = 0: d_a g_ij = Gamma^m_ai g_mj + Gamma^m_aj g_im
    m = bumpy_model()
    pt = [0.4, -0.3, 0.8]
    conn = christoffel_at(m, pt)
    g = conn.metric
    lhs = np.einsum("ija->aij", g.d1)
    rhs = np.einsum("mai,mj->aij", conn.gamma, g.value) + np.einsum(
        "maj,im->aij", conn.gamma, g.value
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_riemann_symmetries_and_bianchi():
    m = bumpy_model()
    r4 = riemann_at(m, [0.4, -0.3, 0.8]).r4
    assert np.max(np.abs(r4 + np.einsum("jikl->ijkl", r4))) < TOL_CURV
    assert np.max(np.abs(r4 + np.einsum("ijlk->ijkl", r4))) < TOL_CURV
    assert np.max(np.abs(r4 - np.einsum("klij->ijkl", r4))) < TOL_CURV
    cyc = r4 + np.einsum("jkil->ijkl", r4) + np.einsum("kijl->ijkl", r4)
    assert np.max(np.abs(cyc)) < TOL_CURV
