"""Connection and curvature against closed-form and finite-difference oracles."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darboux import DegeneratePlaneError, sectional_curvature
from oneill_lab.cli import BUNDLED_MODELS, resolve_model
from oneill_lab.contact import build_r2m1, space_form_data
from oneill_lab.errors import DegenerateMetricError, OutOfDomainError
from oneill_lab import contact, riemannian
from oneill_lab.jets import jet_eval, seed_block
from oneill_lab.riemannian import (
    ManifoldModel,
    christoffel_at,
    connection_block,
    metric_at,
    model_jets,
    pair_r4,
    ricci_from_curvature,
    riemann_at,
    running_sum,
    scalar_curvature,
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
        domain_guard=lambda vs: vs[0] - 0.1,
    )


def sphere_model():
    # Unit sphere: g = diag(1, sin^2 theta), K = +1.
    import oneill_lab.jets as jets

    def sin2(vs):
        # sin(theta) via series is overkill; theta stays in a safe band so
        # we just go through numpy on the values and build the jets by hand.
        th = vs[0]
        s = np.sin(th.value)
        # f = sin^2(th): f' = 2 s c = sin(2th), f'' = 2 cos(2th)
        val = s * s
        grad = np.sin(2 * th.value)[:, None] * th.gradient
        hess = None
        if th.hessian is not None:
            hess = (2 * np.cos(2 * th.value))[:, None, None] * (
                th.gradient[:, :, None] * th.gradient[:, None, :]
            )
        return jets.ArrayJet(val, grad, hess)

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
    conn = christoffel_at(m, [pt])
    assert np.max(np.abs(conn.gamma[0])) == 0.0
    curv = riemann_at(m, pt)
    assert np.max(np.abs(curv.r4[0])) == 0.0
    assert scalar_curvature(conn.metric, curv)[0] == 0.0


def test_polar_christoffels_closed_form():
    m = polar_model()
    r = 1.7
    conn = christoffel_at(m, [[r, 0.4]])
    # Gamma^r_tt = -r, Gamma^t_rt = Gamma^t_tr = 1/r, rest 0
    expect = np.zeros((2, 2, 2))
    expect[0, 1, 1] = -r
    expect[1, 0, 1] = expect[1, 1, 0] = 1.0 / r
    assert np.allclose(conn.gamma[0], expect, atol=1e-12)


def test_polar_is_flat():
    m = polar_model()
    curv = riemann_at(m, [2.3, -0.7])
    assert np.max(np.abs(curv.r4[0])) < 1e-12


def test_sphere_sectional_is_one():
    m = sphere_model()
    for th in (0.6, 1.1, 2.0):
        k = sectional_curvature(m, [th, 0.3], [1.0, 0.0], [0.0, 1.0])
        assert abs(k - 1.0) < TOL_CURV


def test_sphere_ricci_and_scalar():
    m = sphere_model()
    pt = [1.0, 0.2]
    curv = riemann_at(m, pt)
    metric = metric_at(m, [pt])
    ric = ricci_from_curvature(curv)[0]
    # Ric = (n-1) K g = g on the unit 2-sphere; scalar = 2
    assert np.allclose(ric, metric.value[0], atol=TOL_CURV)
    assert abs(scalar_curvature(metric, curv)[0] - 2.0) < TOL_CURV


# -- guards -------------------------------------------------------------------


def test_domain_guard_raises():
    m = polar_model()
    with pytest.raises(OutOfDomainError):
        metric_at(m, [[0.05, 0.0]])


def test_non_pd_metric_raises():
    bad = ManifoldModel(
        name="bad",
        dim=2,
        chart=("x", "y"),
        metric=((_const(1.0), _const(2.0)), (_const(2.0), _const(1.0))),
    )
    with pytest.raises(DegenerateMetricError):
        metric_at(bad, [[0.0, 0.0]])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_metric_fails_the_gate_in_sample_order():
    # g = diag(1, x^3): positive definite at x = 1, inf at x = 1e200, not
    # positive definite at x = -1
    cube = ManifoldModel(
        name="cube",
        dim=2,
        chart=("x", "y"),
        metric=((_const(1.0), _const(0.0)), (_const(0.0), lambda vs: vs[0] ** 3)),
    )
    with pytest.raises(DegenerateMetricError, match=r"\[1e\+200, 0.0\]: entries not finite"):
        metric_at(cube, [[1.0, 0.0], [1e200, 0.0], [-1.0, 0.0]])
    with pytest.raises(DegenerateMetricError, match=r"\[-1.0, 0.0\]: min eigenvalue"):
        metric_at(cube, [[1.0, 0.0], [-1.0, 0.0], [1e200, 0.0]])


def test_running_sum_adds_term_by_term_from_zero():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((9, 3)) * 10.0 ** rng.integers(-12, 12, (9, 3))
    values[:, 2] = -0.0
    rows = np.zeros(3)
    for row in values:
        rows = rows + row
    total = 0.0
    for value in values.ravel().tolist():
        total += value
    assert _same_bits(running_sum(values), rows)
    assert _same_bits(running_sum(values.ravel()), total)
    # a zero row first: a column of -0.0 sums to 0.0, as 0.0 + -0.0 does
    assert _same_bits(running_sum(values)[2], 0.0)
    assert _same_bits(running_sum(np.zeros((0, 2))), [0.0, 0.0])


def test_degenerate_plane_raises():
    m = flat_model()
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(m, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0])


# -- finite-difference oracles on the bumpy metric ----------------------------


def _metric_value(model, pt):
    return metric_at(model, [pt]).value[0]


def test_metric_first_partials_match_fd():
    m = bumpy_model()
    pt = np.array([0.4, -0.3, 0.8])
    g = metric_at(m, [pt])
    h = 1e-5
    for a in range(3):
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        fd = (_metric_value(m, up) - _metric_value(m, dn)) / (2 * h)
        assert np.max(np.abs(g.d1[0, :, :, a] - fd)) < TOL_D1


def test_christoffel_matches_fd_assembly():
    m = bumpy_model()
    pt = np.array([0.4, -0.3, 0.8])
    conn = christoffel_at(m, [pt])
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
    assert np.max(np.abs(conn.gamma[0] - expect)) < TOL_D1


def test_dgamma_matches_fd():
    m = bumpy_model()
    pt = np.array([0.4, -0.3, 0.8])
    conn = connection_block(christoffel_at(m, [pt]))
    h = 1e-5
    for a in range(3):
        up, dn = pt.copy(), pt.copy()
        up[a] += h
        dn[a] -= h
        fd = (christoffel_at(m, [up]).gamma[0] - christoffel_at(m, [dn]).gamma[0]) / (2 * h)
        assert np.max(np.abs(conn.dgamma[0, :, :, :, a] - fd)) < 1e-6


def test_metric_compatibility():
    # nabla g = 0: d_a g_ij = Gamma^m_ai g_mj + Gamma^m_aj g_im
    m = bumpy_model()
    pt = [0.4, -0.3, 0.8]
    conn = christoffel_at(m, [pt])
    gamma, g = conn.gamma[0], conn.metric
    lhs = np.einsum("ija->aij", g.d1[0])
    rhs = np.einsum("mai,mj->aij", gamma, g.value[0]) + np.einsum(
        "maj,im->aij", gamma, g.value[0]
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_riemann_symmetries_and_bianchi():
    m = bumpy_model()
    r4 = riemann_at(m, [0.4, -0.3, 0.8]).r4[0]
    assert np.max(np.abs(r4 + np.einsum("jikl->ijkl", r4))) < TOL_CURV
    assert np.max(np.abs(r4 + np.einsum("ijlk->ijkl", r4))) < TOL_CURV
    assert np.max(np.abs(r4 - np.einsum("klij->ijkl", r4))) < TOL_CURV
    cyc = r4 + np.einsum("jkil->ijkl", r4) + np.einsum("kijl->ijkl", r4)
    assert np.max(np.abs(cyc)) < TOL_CURV


# -- block evaluation against a per-point ScalarJet evaluation ----------------

MODEL_FILE = Path(__file__).resolve().parents[1] / "models" / "reeb_fiber.json"
SPACE_FORMS = {
    **{f"r2m1:{m}": (lambda m=m: build_r2m1(m)) for m in (1, 2, 3)},
    **{name: (lambda name=name: resolve_model(name).total) for name in BUNDLED_MODELS},
    "reeb_fiber": lambda: resolve_model(str(MODEL_FILE)).total,
}


def _per_point(spec, pt):
    """The arrays of one point from ScalarJets, one jet per entry, and the
    one-point contractions."""
    model = spec.model
    d = model.dim
    value = np.zeros((d, d))
    d1 = np.zeros((d, d, d))
    d2 = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(i, d):
            jet = jet_eval(model.metric[i][j], pt)
            value[i, j] = value[j, i] = jet.value
            d1[i, j, :] = d1[j, i, :] = jet.gradient
            d2[i, j, :, :] = d2[j, i, :, :] = jet.hessian
    inverse = np.linalg.inv(value)
    dinverse = -np.einsum("im,mna,nj->aij", inverse, d1, inverse)
    w = (
        np.einsum("jli->lij", d1)
        + np.einsum("ilj->lij", d1)
        - np.einsum("ijl->lij", d1)
    )
    gamma = 0.5 * np.einsum("kl,lij->kij", inverse, w)
    dw = (
        np.einsum("jlia->lija", d2)
        + np.einsum("ilja->lija", d2)
        - np.einsum("ijla->lija", d2)
    )
    dgamma = 0.5 * np.einsum("akl,lij->kija", dinverse, w) + 0.5 * np.einsum(
        "kl,lija->kija", inverse, dw
    )
    r13 = (
        np.einsum("ljki->lijk", dgamma)
        - np.einsum("likj->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    r4 = np.einsum("ml,mijk->ijkl", value, r13)
    phi_jets = [[jet_eval(spec.phi[i][j], pt, order=1) for j in range(d)] for i in range(d)]
    xi_jets = [jet_eval(c, pt, order=1) for c in spec.xi]
    phi = np.array([[j.value for j in row] for row in phi_jets])
    eta = np.array([jet_eval(e, pt, order=1).value for e in spec.eta])
    return {
        "value": value,
        "d1": d1,
        "d2": d2,
        "inverse": inverse,
        "dinverse": dinverse,
        "gamma": gamma,
        "dgamma": dgamma,
        "r13": r13,
        "r4": r4,
        "phi": phi,
        "dphi": np.array([[j.gradient for j in row] for row in phi_jets]),
        "eta": eta,
        "xi": np.array([j.value for j in xi_jets]),
        "dxi": np.array([j.gradient for j in xi_jets]),
        "closed": _closed_form(spec.c, value, phi, eta),
    }


def _closed_form(c, gv, phi_v, e):
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    p2 = np.einsum("mj,mk->jk", phi_v, gv)
    term_q = np.einsum("jk,il->ijkl", gv, gv) - np.einsum("ik,jl->ijkl", gv, gv)
    term_w = (
        np.einsum("i,k,jl->ijkl", e, e, gv)
        - np.einsum("j,k,il->ijkl", e, e, gv)
        + np.einsum("ik,j,l->ijkl", gv, e, e)
        - np.einsum("jk,i,l->ijkl", gv, e, e)
        + np.einsum("jk,il->ijkl", p2, p2)
        - np.einsum("ik,jl->ijkl", p2, p2)
        - 2.0 * np.einsum("ij,kl->ijkl", p2, p2)
    )
    return q * term_q + w * term_w


def _block_arrays(spec, data, k):
    conn, metric, contact = data.conn, data.conn.metric, data.contact
    return {
        "value": metric.value[k],
        "d1": metric.d1[k],
        "d2": metric.d2[k],
        "inverse": metric.inverse[k],
        "dinverse": metric.dinverse[k],
        "gamma": conn.gamma[k],
        "dgamma": conn.dgamma[k],
        "r13": data.curvature.r13[k],
        "r4": data.curvature.r4[k],
        "phi": contact.phi[k],
        "dphi": contact.dphi[k],
        "eta": contact.eta[k],
        "xi": contact.xi[k],
        "dxi": contact.dxi[k],
        "closed": data.closed[k],
    }


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPACE_FORMS)), st.integers(1, 7), st.data())
def test_block_arrays_bit_equal_to_per_point_scalar_jets(name, length, data):
    """Metric, connection, curvature (jet and closed form) and contact data
    of a block equal, bit for bit, a per-point ScalarJet evaluation with
    one-point contractions; a numpy whose einsum sums in another order with
    a batch axis fails it."""
    spec = SPACE_FORMS[name]()
    d = spec.model.dim
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    point = st.lists(coord, min_size=d, max_size=d)
    points = np.array(data.draw(st.lists(point, min_size=length, max_size=length)))
    block = space_form_data(spec, points)
    for k, pt in enumerate(points):
        want = _per_point(spec, pt)
        got = _block_arrays(spec, block, k)
        for key in want:
            assert _same_bits(got[key], want[key]), f"{name} point {k}: {key}"


# -- the other model expressions on block seeds against per-point ScalarJets --

SUBMERSIONS = {name: name for name in BUNDLED_MODELS} | {"reeb_fiber": str(MODEL_FILE)}


def _assert_entries_bit_equal(table, got, points, order):
    """Each entry of ``got`` (a ``model_jets`` result) equals ``jet_eval``
    of its callable at its point: value, gradient and, at order 2, Hessian."""
    funcs = np.asarray(table, dtype=object)
    assert got.shape == (len(points),) + funcs.shape
    for k, pt in enumerate(points):
        for idx in np.ndindex(*funcs.shape):
            ref = jet_eval(funcs[idx], pt, order=order)
            at = (k,) + idx
            assert _same_bits(got.value[at], ref.value)
            assert _same_bits(got.gradient[at], ref.gradient)
            if order == 2:
                assert _same_bits(got.hessian[at], ref.hessian)
            else:
                assert got.hessian is None


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(SUBMERSIONS)),
    st.integers(1, 4),
    st.sampled_from([1, 2]),
    st.data(),
)
def test_model_jets_bit_equal_to_per_point_scalar_jets(name, length, order, data):
    """The declared fields, the projection and the base metric of every
    submersion model, evaluated on a block, equal a per-point ScalarJet
    evaluation bit for bit."""
    sub = resolve_model(SUBMERSIONS[name])
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    point = st.lists(coord, min_size=sub.total.model.dim, max_size=sub.total.model.dim)
    points = np.array(data.draw(st.lists(point, min_size=length, max_size=length)))
    vs = seed_block(points, order=order)
    fields = [f.components for f in sub.vertical_fields + sub.horizontal_fields]
    _assert_entries_bit_equal(fields, model_jets(fields, vs), points, order)
    projection = model_jets(sub.projection, vs)
    _assert_entries_bit_equal(sub.projection, projection, points, order)
    base_points = projection.value
    base = sub.base.metric
    _assert_entries_bit_equal(
        base, model_jets(base, seed_block(base_points, order=order)), base_points, order
    )


# -- the summation order of pair_r4 -------------------------------------------


def _five_operand(r4, x, y, z, w):
    return np.einsum("...ijkl,...i,...j,...k,...l->...", r4, x, y, z, w)


def _left_to_right(r4, x, y, z, w):
    """``running_sum`` over (i, j, k, l) in row-major order of the products
    r4 * x * y * z * w, taken left to right."""
    terms = r4 * x[..., :, None, None, None]
    terms = terms * y[..., None, :, None, None] * z[..., None, None, :, None]
    terms = terms * w[..., None, None, None, :]
    return running_sum(np.moveaxis(terms.reshape(terms.shape[:-4] + (-1,)), -1, 0))


def _with_specials(rng, shape):
    """Normal draws spread over 12 decades, about one in 20 of them replaced
    by 0.0, -0.0, inf, -inf or NaN."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])[rng.integers(0, 5, shape)]
    return np.where(rng.random(shape) < 0.05, specials, values)


def _pair_shapes(kind, d, n, k, probes):
    """Operand shapes of ``pair_r4`` as the package passes them."""
    if kind == "frame-table":  # an r4 without a point axis, on frame 4-tuples
        return [(d,) * 4, (k, 1, 1, 1, d), (1, k, 1, 1, d), (1, 1, k, 1, d), (1, 1, 1, k, d)]
    # a block r4 with unit axes, on frame pairs or on frame vectors and probes
    cols = k if kind == "block-pairs" else probes
    return [(n, 1, 1) + (d,) * 4, (n, k, 1, d), (n, 1, cols, d), (n, 1, cols, d), (n, k, 1, d)]


def _assert_five_operand_order(ops):
    with np.errstate(all="ignore"):
        got = pair_r4(*ops)
        assert _same_bits(got, _five_operand(*ops))
        assert _same_bits(got, _left_to_right(*ops))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["frame-table", "block-pairs", "block-probes"]),
    st.integers(2, 6),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(1, 9),
    st.sampled_from([None, 1, 40, 700]),
    st.integers(0, 2**32 - 1),
)
def test_pair_r4_sums_in_the_five_operand_order(kind, d, n, k, probes, budget, seed):
    """pair_r4 equals numpy's five-operand einsum and a running sum of
    left-to-right products byte for byte, with signed zeros, infinities and
    NaNs, within and across the runs of its leading axis (``budget`` shrinks
    ``_BLOCK_ENTRIES`` to cut them short). A numpy whose einsum loops add in
    another order fails here."""
    rng = np.random.default_rng(seed)
    ops = [_with_specials(rng, shape) for shape in _pair_shapes(kind, d, n, k, probes)]
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(riemannian, "_BLOCK_ENTRIES", budget)
        _assert_five_operand_order(ops)


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 4), st.integers(36, 52), st.integers(0, 2**32 - 1))
def test_pair_r4_probe_points_beyond_one_run(n, probes, seed):
    """At d = 5 with three frame vectors and 36 or more probes, one point's
    products r4 * e * p take more than half of ``4 * _BLOCK_ENTRIES``, so
    every point is a run of its own, as on a random-probe scan."""
    assert 3 * probes * 5**4 > 2 * riemannian._BLOCK_ENTRIES
    rng = np.random.default_rng(seed)
    _assert_five_operand_order(
        [_with_specials(rng, shape) for shape in _pair_shapes("block-probes", 5, n, 3, probes)]
    )


# -- the fast spellings of the total-space contractions -----------------------
#
# Each is the same sequential sum as a plain einsum, run in another memory
# order, and hands its result on in the strides of the plain spelling: a
# later einsum adds its terms in an order that follows its operands'
# strides, so equal values in other strides could still move report bits.


def _plain_dinverse(inverse, d1):
    return -np.einsum("pim,pmna,pnj->paij", inverse, d1, inverse)


def _plain_lower_first(g, r13):
    return np.einsum("pml,pmijk->pijkl", g, r13)


def _plain_gamma_phi(gamma, phi_v):
    return np.einsum("pkam,pmb->pkab", gamma, phi_v)


def _plain_r13(gamma, dgamma):
    r13 = np.einsum("pljki->plijk", dgamma) - np.einsum("plikj->plijk", dgamma)
    r13 += np.einsum("plim,pmjk->plijk", gamma, gamma)
    r13 -= np.einsum("pljm,pmik->plijk", gamma, gamma)
    return r13


def _plain_space_form_r4(c, gv, phi_v, e):
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    p2 = np.einsum("pmj,pmk->pjk", phi_v, gv)
    term_q = np.einsum("pjk,pil->pijkl", gv, gv)
    term_q -= np.einsum("pik,pjl->pijkl", gv, gv)
    term_w = np.einsum("pi,pk,pjl->pijkl", e, e, gv)
    term_w -= np.einsum("pj,pk,pil->pijkl", e, e, gv)
    term_w += np.einsum("pik,pj,pl->pijkl", gv, e, e)
    term_w -= np.einsum("pjk,pi,pl->pijkl", gv, e, e)
    term_w += np.einsum("pjk,pil->pijkl", p2, p2)
    term_w -= np.einsum("pik,pjl->pijkl", p2, p2)
    term_w -= 2.0 * np.einsum("pij,pkl->pijkl", p2, p2)
    term_q *= q
    term_w *= w
    term_q += term_w
    return term_q


def _same_bits_and_strides(got, want) -> bool:
    return got.strides == want.strides and _same_bits(got, want)


def _same_bits_but_nan_signs(got, want) -> bool:
    """Strides and bits equal, except that a NaN may be either NaN: IEEE 754
    leaves open which factor's NaN a product of two NaNs returns, and
    numpy's two-operand outer products pick it by an entry's place in their
    vector loop, so the plain einsum itself moves it with the layout."""
    got, want = (np.where(np.isnan(a), np.nan, a) for a in (got, want))
    return _same_bits_and_strides(got, want)


# At d >= 9 a block of 400 points would make arrays of more than 16 MiB;
# the pipeline's own total-space blocks stay at 256 KiB (``point_blocks``).
_MAX_ENTRIES = 1 << 21


@st.composite
def _block_shape(draw):
    """An odd chart dimension in 3..13 and a block of 1..64 or 400 points."""
    d = draw(st.sampled_from([3, 5, 7, 9, 11, 13]))
    sizes = st.integers(1, 64)
    if 400 * d**4 <= _MAX_ENTRIES:
        sizes = sizes | st.just(400)
    return d, draw(sizes)


@settings(max_examples=40, deadline=None)
@given(_block_shape(), st.integers(0, 2**32 - 1))
def test_fast_spellings_equal_plain_einsums_in_bits_and_strides(shape, seed):
    """``_dinverse``, ``_lower_first``, ``contact._gamma_phi`` and the
    ``r13`` of ``curvature_from_connection`` equal their plain einsums
    byte for byte and stride for stride, on operands in the pipeline's
    memory order holding signed zeros, infinities and NaNs; so does
    ``contact.space_form_r4``, up to the sign of a NaN entry, on a
    symmetric metric (whose NaNs take both signs)."""
    d, n = shape
    rng = np.random.default_rng(seed)
    square = _with_specials(rng, (n, d, d))
    with np.errstate(all="ignore"):
        d1 = _with_specials(rng, (n, d, d, d))
        assert _same_bits_and_strides(
            riemannian._dinverse(square, d1), _plain_dinverse(square, d1)
        )
        assert _same_bits_and_strides(
            contact._gamma_phi(d1, square), _plain_gamma_phi(d1, square)
        )
        # d1 as gamma; dgamma (p, k, i, j, a) is stored as (p, k, a, i, j)
        dgamma = _with_specials(rng, (n, d, d, d, d)).transpose(0, 1, 3, 4, 2)
        metric = riemannian.MetricData(square, None, None, None, None)
        conn = riemannian.ConnectionData(metric=metric, gamma=d1, dgamma=dgamma)
        assert _same_bits_and_strides(
            riemannian.curvature_from_connection(conn).r13, _plain_r13(d1, dgamma)
        )
        del d1, dgamma, conn
        r13 = _with_specials(rng, (n, d, d, d, d))
        assert _same_bits_and_strides(
            riemannian._lower_first(square, r13), _plain_lower_first(square, r13)
        )
        del r13
        c = float(_with_specials(rng, ()))
        gv = square + square.transpose(0, 2, 1)
        phi, eta = _with_specials(rng, (n, d, d)), _with_specials(rng, (n, d))
        assert _same_bits_but_nan_signs(
            contact.space_form_r4(c, gv, phi, eta), _plain_space_form_r4(c, gv, phi, eta)
        )


# Memory order of the axes of each SpaceFormData array, outermost first.
_LAYOUTS = {
    "points": (0, 1),
    "metric.value": (0, 1, 2),
    "metric.d1": (0, 1, 2, 3),
    "metric.d2": (0, 1, 2, 3, 4),
    "metric.inverse": (0, 1, 2),
    "metric.dinverse": (0, 2, 1, 3),  # (p, a, i, j) stored as (p, i, a, j)
    "gamma": (0, 1, 2, 3),
    "dgamma": (0, 1, 4, 2, 3),  # (p, k, i, j, a) stored as (p, k, a, i, j)
    "r13": (0, 1, 2, 3, 4),
    "r4": (0, 1, 2, 3, 4),
    "contact.phi": (0, 1, 2),
    "contact.dphi": (0, 1, 2, 3),
    "contact.eta": (0, 1),
    "contact.xi": (0, 1),
    "contact.dxi": (0, 1, 2),
    "closed": (0, 1, 2, 3, 4),
}


def _space_form_arrays(data):
    metric, contact = data.conn.metric, data.contact
    return {
        "points": data.points,
        **{f"metric.{k}": v for k, v in metric._asdict().items()},
        "gamma": data.conn.gamma,
        "dgamma": data.conn.dgamma,
        "r13": data.curvature.r13,
        "r4": data.curvature.r4,
        **{f"contact.{k}": v for k, v in contact._asdict().items()},
        "closed": data.closed,
    }


def _layout_strides(shape, layout):
    strides = [0] * len(shape)
    step = 8
    for axis in reversed(layout):
        strides[axis] = step
        step *= shape[axis]
    return tuple(strides)


@pytest.mark.parametrize(
    "name", [f"r2m1:{m}" for m in (1, 2, 3, 4)] + sorted(SUBMERSIONS)
)
def test_space_form_data_strides_are_frozen(name):
    """Every array of a block's SpaceFormData keeps the strides it had when
    each was the plain einsum, for a block of one point and a full block."""
    model = name if name.startswith("r2m1:") else SUBMERSIONS[name]
    resolved = resolve_model(model)
    spec = getattr(resolved, "total", resolved)
    d = spec.model.dim
    rng = np.random.default_rng(3)
    for n in (1, max(2, len(next(riemannian.point_blocks(range(1000), d))))):
        arrays = _space_form_arrays(space_form_data(spec, rng.uniform(-2.0, 2.0, (n, d))))
        assert set(arrays) == set(_LAYOUTS)
        for key, arr in arrays.items():
            assert arr.strides == _layout_strides(arr.shape, _LAYOUTS[key]), key
