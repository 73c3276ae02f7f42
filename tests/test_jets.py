"""Jet arithmetic against frozen hand values and finite-difference oracles,
and array jets against scalar jets, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oneill_lab.errors import RejectedInputError, SingularEvaluationError
from oneill_lab.jets import (
    ArrayJet,
    ScalarJet,
    as_jet,
    constant,
    deriv,
    jet_eval,
    seed,
    seed_block,
    sqrt,
    stack,
    sum_terms,
)

# -- frozen single-variable examples ----------------------------------------


def test_seed_identity():
    p = seed([3.0])
    (x,) = p.vars
    assert x.value == 3.0
    assert x.gradient.tolist() == [1.0]
    assert x.hessian.tolist() == [[0.0]]


def test_square_at_three():
    (x,) = seed([3.0]).vars
    j = x * x
    assert j.value == 9.0
    assert j.gradient.tolist() == [6.0]
    assert j.hessian.tolist() == [[2.0]]


def test_pow_matches_repeated_mul():
    (x,) = seed([3.0]).vars
    assert (x**2).value == (x * x).value
    assert (x**2).hessian.tolist() == [[2.0]]
    assert (x**3).gradient.tolist() == [27.0]


def test_product_two_vars():
    x, y = seed([2.0, 5.0]).vars
    j = x * y
    assert j.value == 10.0
    assert j.gradient.tolist() == [5.0, 2.0]
    assert j.hessian.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_reciprocal_at_two():
    (x,) = seed([2.0]).vars
    j = 1.0 / x
    assert j.value == 0.5
    assert j.gradient.tolist() == [-0.25]
    assert j.hessian.tolist() == [[0.25]]


def test_sqrt_at_four():
    (x,) = seed([4.0]).vars
    j = sqrt(x)
    assert j.value == 2.0
    assert j.gradient.tolist() == [0.25]
    # d2/dx2 sqrt(x) = -1/(4 x^(3/2)) = -1/32 at x=4
    assert abs(j.hessian[0, 0] + 1.0 / 32.0) < 1e-15


def test_fractional_power():
    (x,) = seed([4.0]).vars
    j = x**0.5
    assert abs(j.value - 2.0) < 1e-15
    assert abs(j.gradient[0] - 0.25) < 1e-15


def test_division_jet_by_jet():
    x, y = seed([3.0, 2.0]).vars
    j = x / y
    assert j.value == 1.5
    assert np.allclose(j.gradient, [0.5, -0.75])
    # H = [[0, -1/4], [-1/4, 3/4]]
    assert np.allclose(j.hessian, [[0.0, -0.25], [-0.25, 0.75]])


# -- guards ------------------------------------------------------------------


def test_empty_seed_rejected():
    with pytest.raises(RejectedInputError):
        seed([])


def test_nonfinite_seed_rejected():
    with pytest.raises(RejectedInputError):
        seed([1.0, float("nan")])


def test_division_guard():
    (x,) = seed([0.0]).vars
    with pytest.raises(SingularEvaluationError):
        _ = 1.0 / x


def test_sqrt_guard():
    (x,) = seed([-1.0]).vars
    with pytest.raises(SingularEvaluationError):
        sqrt(x)
    with pytest.raises(SingularEvaluationError):
        sqrt(-2.0)


def test_dim_mismatch_rejected():
    (x,) = seed([1.0]).vars
    y = seed([1.0, 2.0]).vars[0]
    with pytest.raises(RejectedInputError):
        _ = x + y


def test_jet_exponent_rejected():
    (x,) = seed([2.0]).vars
    with pytest.raises(RejectedInputError):
        _ = x**x


# -- order-1 demotion --------------------------------------------------------


def test_deriv_demotes_order():
    x, y = seed([2.0, 5.0]).vars
    j = x * x * y
    dx = deriv(j, 0)
    assert dx.order == 1
    assert dx.value == 20.0  # d(x^2 y)/dx = 2xy
    assert dx.gradient.tolist() == [10.0, 4.0]  # [2y, 2x]
    with pytest.raises(RejectedInputError):
        deriv(dx, 0)


def test_order_contagion():
    x, y = seed([2.0, 5.0]).vars
    d = deriv(x * y, 0)
    assert (d * x).hessian is None
    assert (x + d).hessian is None
    assert (d / y).hessian is None


# -- property tests: random polynomials vs central differences ----------------


def _poly_factory(coeffs, dim):
    # f(x) = sum over monomials c * prod x_i^e_i with exponents <= 2
    def f(vs):
        acc = constant(0.0, dim, order=vs[0].order) if isinstance(vs[0], ScalarJet) else 0.0
        for c, exps in coeffs:
            term = c
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * vs[i]
            acc = acc + term
        return acc

    return f


def _num_eval(f, pt):
    class _F(float):
        pass

    return float(f([float(v) for v in pt]))


coeff_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-3.0, max_value=3.0),
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
    ),
    min_size=1,
    max_size=5,
)
point_strategy = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, point_strategy)
def test_poly_gradient_matches_fd(coeffs, pt):
    dim = 3
    f = _poly_factory(coeffs, dim)
    j = jet_eval(f, pt)
    h = 1e-4
    for i in range(dim):
        up = list(pt)
        dn = list(pt)
        up[i] += h
        dn[i] -= h
        fd = (_num_eval(f, up) - _num_eval(f, dn)) / (2 * h)
        assert abs(j.gradient[i] - fd) < 1e-6 * max(1.0, abs(fd))


@settings(max_examples=40, deadline=None)
@given(coeff_strategy, point_strategy)
def test_poly_hessian_matches_fd(coeffs, pt):
    dim = 3
    f = _poly_factory(coeffs, dim)
    j = jet_eval(f, pt)
    h = 1e-3
    for i in range(dim):
        for k in range(dim):
            pp = list(pt)
            pm = list(pt)
            mp = list(pt)
            mm = list(pt)
            pp[i] += h
            pp[k] += h
            pm[i] += h
            pm[k] -= h
            mp[i] -= h
            mp[k] += h
            mm[i] -= h
            mm[k] -= h
            fd = (
                _num_eval(f, pp) - _num_eval(f, pm) - _num_eval(f, mp) + _num_eval(f, mm)
            ) / (4 * h * h)
            assert abs(j.hessian[i, k] - fd) < 5e-5 * max(1.0, abs(fd))


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, point_strategy)
def test_hessian_bit_exact_symmetry(coeffs, pt):
    f = _poly_factory(coeffs, 3)
    j = jet_eval(f, pt)
    assert np.array_equal(j.hessian, j.hessian.T)


@settings(max_examples=60, deadline=None)
@given(coeff_strategy, point_strategy)
def test_rational_hessian_symmetry(coeffs, pt):
    # rational stress: p / (2 + sum x_i^2) mixes every rule
    f = _poly_factory(coeffs, 3)

    def g(vs):
        denom = 2.0 + vs[0] * vs[0] + vs[1] * vs[1] + vs[2] * vs[2]
        return as_jet(f(vs), 3) / denom

    j = jet_eval(g, pt)
    assert np.array_equal(j.hessian, j.hessian.T)
    assert math.isfinite(j.value)


def test_chain_sqrt_div_fd():
    def f(vs):
        x, y = vs
        return sqrt(1.0 + x * x + y * y) / (2.0 + x * y)

    pt = [0.7, -1.2]
    j = jet_eval(f, pt)
    h = 1e-5

    def num(q):
        x, y = q
        return math.sqrt(1.0 + x * x + y * y) / (2.0 + x * y)

    for i in range(2):
        up = list(pt)
        dn = list(pt)
        up[i] += h
        dn[i] -= h
        fd = (num(up) - num(dn)) / (2 * h)
        assert abs(j.gradient[i] - fd) < 1e-8


# -- array jets: every element bit-identical to the scalar-jet result ---------

# Magnitudes stay where no product or quotient below overflows.
_finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_nonzero = _finite.filter(lambda v: abs(v) > 1e-3)
_positive = st.floats(min_value=1e-3, max_value=1e3)


def _draw_jet(data, shape, dim, order, values=_finite):
    value = data.draw(hnp.arrays(float, shape, elements=values))
    grad = data.draw(hnp.arrays(float, shape + (dim,), elements=_finite))
    if order == 1:
        return ArrayJet(value, grad, None)
    # symmetric Hessians: draw the upper triangle and mirror it
    upper = data.draw(hnp.arrays(float, shape + (dim, dim), elements=_finite))
    hess = np.triu(upper) + np.swapaxes(np.triu(upper, 1), -1, -2)
    return ArrayJet(value, grad, hess)


def _element(jet, shape, idx):
    """The ScalarJet at batch index ``idx`` of ``jet`` broadcast to ``shape``."""
    d = jet.dim
    value = np.broadcast_to(jet.value, shape)[idx]
    grad = np.broadcast_to(jet.gradient, shape + (d,))[idx]
    hess = None
    if jet.hessian is not None:
        hess = np.broadcast_to(jet.hessian, shape + (d, d))[idx].copy()
    return ScalarJet(float(value), grad.copy(), hess)


def _assert_bit_equal(arr, idx, ref):
    assert arr.value[idx] == ref.value
    assert np.array_equal(arr.gradient[idx], ref.gradient)
    if ref.hessian is None:
        assert arr.hessian is None
    else:
        assert np.array_equal(arr.hessian[idx], ref.hessian)


def _check_elementwise(result, operands, scalar_op):
    shape = np.shape(result.value)
    for idx in np.ndindex(*shape):
        ref = scalar_op(*[_element(j, shape, idx) for j in operands])
        _assert_bit_equal(result, idx, ref)
    if result.hessian is not None:
        assert np.array_equal(result.hessian, np.swapaxes(result.hessian, -1, -2))


_BINARY = [
    (lambda a, b: a + b),
    (lambda a, b: a - b),
    (lambda a, b: a * b),
    (lambda a, b: a / b),
    (lambda a, b: -a + 2.5 * b),
    (lambda a, b: 3.0 - a * b),
    (lambda a, b: 1.0 / b + a),
    (lambda a, b: 2.5 + a * b),
]


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([(2, 2), (1, 1), (1, 2), (2, 1)]),
)
def test_array_jet_matches_scalar_jet_bit_for_bit(data, shapes, dim, orders):
    sa, sb = shapes.input_shapes
    a = _draw_jet(data, sa, dim, orders[0])
    b = _draw_jet(data, sb, dim, orders[1], values=_nonzero)
    for op in _BINARY:
        result = op(a, b)
        assert result.order == min(orders)  # order 1 is contagious
        _check_elementwise(result, (a, b), op)
    root = _draw_jet(data, sa, dim, orders[0], values=_positive)
    _check_elementwise(root.sqrt(), (root,), lambda j: j.sqrt())
    _check_elementwise(sqrt(root), (root,), sqrt)


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_sum_terms_matches_sequential_scalar_sum(data, dim, order, rows, terms):
    jets = _draw_jet(data, (rows, terms, 2), dim, order)
    start = _draw_jet(data, (rows,), dim, order)
    got = sum_terms(jets, axes=(1, 2))
    got_from = sum_terms(jets, axes=(1, 2), start=start)
    shape = jets.value.shape
    for r in range(rows):
        acc = None
        acc_from = _element(start, (rows,), (r,))
        for t in range(terms):
            for k in range(2):
                term = _element(jets, shape, (r, t, k))
                acc = term if acc is None else acc + term
                acc_from = acc_from + term
        _assert_bit_equal(got, (r,), acc)
        _assert_bit_equal(got_from, (r,), acc_from)


def test_array_jet_stack_and_partials_match_scalar_jets():
    x, y = seed([0.7, -1.3]).vars
    fields = [[x * y, x / (2.0 + y * y)], [sqrt(1.0 + x * x), 3.0 - y]]
    arr = stack(fields)
    assert arr.shape == (2, 2) and arr.order == 2
    for i in range(2):
        for j in range(2):
            _assert_bit_equal(arr, (i, j), fields[i][j])
            for k in range(2):
                _assert_bit_equal(arr.partials(), (i, j, k), deriv(fields[i][j], k))
    with pytest.raises(RejectedInputError):
        arr.partials().partials()


def test_array_jet_guards_raise_like_scalar_jets():
    d = 2
    tiny = ArrayJet(np.array([1.0, 1e-301]), np.zeros((2, d)), np.zeros((2, d, d)))
    one = ArrayJet(np.array(1.0), np.zeros(d), np.zeros((d, d)))
    with pytest.raises(SingularEvaluationError):
        _ = one / tiny
    with pytest.raises(SingularEvaluationError):
        _ = 1.0 / tiny
    with pytest.raises(SingularEvaluationError):
        _ = ScalarJet(1.0, np.zeros(d), None) / ScalarJet(1e-301, np.zeros(d), None)
    for bad in (0.0, -4.0):
        arr = ArrayJet(np.array([4.0, bad]), np.zeros((2, d)), np.zeros((2, d, d)))
        with pytest.raises(SingularEvaluationError):
            arr.sqrt()
        with pytest.raises(SingularEvaluationError):
            sqrt(arr)
        with pytest.raises(SingularEvaluationError):
            ScalarJet(bad, np.zeros(d), np.zeros((d, d))).sqrt()
    other = ArrayJet(np.array(1.0), np.zeros(d + 1), None)
    with pytest.raises(RejectedInputError):
        _ = one + other


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    hnp.array_shapes(max_dims=2, max_side=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=2),
)
def test_array_jet_power_matches_scalar_jet_bit_for_bit(data, shape, dim, order):
    base = _draw_jet(data, shape, dim, order, values=st.floats(0.1, 10.0))
    for exponent in (0, 1, 2, 3, -1, -2, 2.0, 0.5, 1.5, -0.5):
        _check_elementwise(base**exponent, (base,), lambda j, e=exponent: j**e)


def test_seed_block_matches_seed_per_point():
    points = np.array([[0.5, -1.0, 2.0], [0.0, 3.5, -0.25]])
    for order in (1, 2):
        block = seed_block(points, order=order)
        for k, pt in enumerate(points):
            for i, var in enumerate(seed(pt, order=order).vars):
                _assert_bit_equal(block[i], (k,), var)


@pytest.mark.parametrize(
    "points", [[], [[]], [1.0, 2.0], [[1.0, float("inf")]], [[[1.0]]]]
)
def test_seed_block_rejects_bad_blocks(points):
    with pytest.raises(RejectedInputError):
        seed_block(points)
