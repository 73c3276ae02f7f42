"""Block curvature aggregates and pointwise identity residuals.

The curvature of the vertical block (fiber direction) and of the horizontal
block is defined through the Gauss-type exchange formulas, feeding the
ambient curvature computed by automatic differentiation and correcting with
the fundamental tensors.  The residual suite cross-checks these against the
closed-form ambient curvature of a constant phi-sectional-curvature space
and against the scalar-level trace identities.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .contact import SpaceFormData
from .riemannian import float_squares, pair_r4, point_maxima, point_sums
from .riemannian import running_sum, scalar_curvature
from .submersion import OneillData, PointCalculus, SubmersionModel, tensors_from_calculus


def _ambient(calc: PointCalculus, r4, x, y, z, w):
    """pair_r4 of the block curvature ``r4`` of ``calc``."""
    return pair_r4(calc.per_point(r4, np.ndim(x) + 3), x, y, z, w)


def fiber_curvature_hat(calc: PointCalculus, e, p):
    """Curvature of the vertical block on (e, p, p, e): the ambient value
    corrected by the vertical-block tensor. The vectors have shape
    ``(..., dim)`` and broadcast against each other; each value equals the
    one for single vectors, bit for bit."""
    ce, cp, t = calc.frame_coeffs(e), calc.frame_coeffs(p), calc.t_of
    amb = _ambient(calc, calc.state.curvature.r4, e, p, p, e)
    return amb - calc.pairings(t(ce, ce), t(cp, cp)) + calc.pairings(t(cp, ce), t(ce, cp))


def horizontal_curvature_star(calc: PointCalculus, e, p):
    """Curvature of the horizontal block on (e, p, p, e): the ambient value
    corrected by the horizontal-block tensor, whose term g(A(e, p), A(p, e))
    enters twice; vectors broadcast as in ``fiber_curvature_hat``."""
    ce, cp, a = calc.frame_coeffs(e), calc.frame_coeffs(p), calc.a_of
    amb = _ambient(calc, calc.state.curvature.r4, e, p, p, e)
    cross = calc.pairings(a(ce, cp), a(cp, ce))
    return amb + 2.0 * cross - calc.pairings(a(cp, cp), a(ce, ce)) + cross


def _frame_trace(block_curvature, calc, frame, probes) -> np.ndarray:
    """Sum over the frame vectors e of block_curvature(e, p), the value on
    (e, p, p, e), one value per probe p, added frame vector by frame vector
    from 0.0. The ``frame`` (N, k, dim) and the ``probes`` (N, P, dim) lead
    with the point axis."""
    e, p = frame[..., :, None, :], probes[..., None, :, :]
    return running_sum(np.moveaxis(block_curvature(calc, e, p), -2, 0))


def ric_hat_probes(calc: PointCalculus, us) -> np.ndarray:
    """Vertical-block Ricci values on (unit) vertical vectors ``us``, shaped
    (N, P, dim): traces of the block curvature over the vertical frame.
    The diagonal term vanishes identically, so the full-frame sum matches
    the sum over complements."""
    return _frame_trace(fiber_curvature_hat, calc, calc.frame.vert_values, us)


def ric_star_probes(calc: PointCalculus, xs) -> np.ndarray:
    """Horizontal-block Ricci values on (unit) horizontal vectors ``xs``."""
    return _frame_trace(horizontal_curvature_star, calc, calc.frame.horiz_values, xs)


def _frame_table(calc, r4, a, b, c, d) -> np.ndarray:
    """R(a_i, b_j, c_k, d_l) on all 4-tuples of the rows of a, b, c, d."""
    a, b = a[:, :, None, None, None], b[:, None, :, None, None]
    return _ambient(calc, r4, a, b, c[:, None, None, :, None], d[:, None, None, None, :])


def ambient_frame_tables(calc: PointCalculus):
    """The ambient curvature on all frame 4-tuples (U, U, U, U), (X, X, X, X)
    and (U, X, X, U), each indexed [p, a, b, c, d]."""
    uv, xv, r4 = calc.frame.vert_values, calc.frame.horiz_values, calc.state.curvature.r4
    rows = ((uv, uv, uv, uv), (xv, xv, xv, xv), (uv, xv, xv, uv))
    return tuple(_frame_table(calc, r4, *tup) for tup in rows)


def _ijji(table) -> np.ndarray:
    """The entries [p, i, j] = table[p, i, j, j, i] of a frame table."""
    i, j = np.arange(table.shape[1])[:, None], np.arange(table.shape[2])
    return table[:, i, j, j, i]


class PointAnalysis(NamedTuple):
    """What the structure, identity and theorem sections share on a block of
    points: the block's ``PointCalculus`` and tensor data, the block scalar
    curvatures ``tau_hat``/``tau_star`` (stored undoubled), the Ricci values
    ``ric_hat`` (N, r) on the vertical and ``ric_star`` (N, n) on the
    horizontal frame vectors, and the divergence trace ``delta_n``, one
    value per point. Each Ricci value equals ``ric_hat_probes`` or
    ``ric_star_probes`` on its frame vector, bit for bit."""

    calc: PointCalculus
    data: OneillData
    tau_hat: np.ndarray
    tau_star: np.ndarray
    ric_hat: np.ndarray
    ric_star: np.ndarray
    delta_n: np.ndarray


def _hat_star_tables(calc: PointCalculus):
    """Block curvatures on the frame pairs: hat[p, j, k] on the vertical
    pair (U_j, U_k), star[p, s, t] on the horizontal pair (X_s, X_t), in the
    broadcast shapes of ``_frame_trace`` over the frame, diagonal included."""
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    hat = fiber_curvature_hat(calc, uv[:, :, None], uv[:, None])
    star = horizontal_curvature_star(calc, xv[:, :, None], xv[:, None])
    return hat, star


def identity_residuals(analysis: PointAnalysis) -> dict:
    """The stable identity ids {T1, T4, S1, S2, S3, R1, R2, gauss3} mapped to
    max absolute residuals on the block of ``analysis``, one value per
    point. Only the identity section reads them, so ``analyze_point``
    leaves them to this function."""
    calc, data = analysis.calc, analysis.data
    tau_hat, tau_star, delta_n = analysis.tau_hat, analysis.tau_star, analysis.delta_n
    two_tau = scalar_curvature(calc.conn.metric, calc.state.curvature)
    c = calc.sub.total.c
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    r, n = calc.r, calc.n
    tc = data.t_coeff
    res = {}

    # quadratic rearrangement of the vertical-block coefficients
    d_s = tc[:, 0, 0, :]
    if r > 1:
        d_s = d_s - np.sum(np.diagonal(tc[:, 1:, 1:, :], axis1=1, axis2=2), axis=2)
    # the terms of (s, a, b), 1 <= a < b < r, in that order, with the squares
    # of Python floats
    pairs = [(a, b) for a in range(1, r) for b in range(a + 1, r)]
    first, second = [a for a, _ in pairs], [b for _, b in pairs]
    cross = tc[:, first, first] * tc[:, second, second] - float_squares(tc[:, first, second])
    rhs_t1 = (
        0.5 * data.n_norm_sq
        + 0.5 * np.sum(d_s**2, axis=1)
        + 2.0 * np.sum(tc[:, 0, 1:, :] ** 2, axis=(1, 2))
        - 2.0 * point_sums(np.swapaxes(cross, 1, 2))
    )
    res["T1"] = np.abs(data.sum_t_sq - rhs_t1)

    if calc.sub.xi_case == "vertical":
        rhs_t4 = q * r * (r - 1) - 2.0 * w * (r - 1) - data.n_norm_sq + data.sum_t_sq
    else:
        rhs_t4 = q * r * (r - 1) - data.n_norm_sq + data.sum_t_sq
    res["T4"] = np.abs(2.0 * tau_hat - rhs_t4)

    base_q = q * (r * (r - 1) + n * (n - 1) + 2 * n * r)
    if calc.sub.xi_case == "vertical":
        rhs_s1 = base_q + w * (4.0 * (r - 1) + n + 3.0 * data.trace_phi_b)
    else:
        rhs_s1 = base_q + w * (n + 3.0 * data.trace_phi_b + 4.0 * r - 7.0)
    res["S1"] = np.abs(two_tau - rhs_s1)

    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    r4, r4_closed = calc.state.curvature.r4, calc.state.closed
    uuuu, xxxx, uxxu = ambient_frame_tables(calc)

    # running sum of R(a_i, b_j, b_j, a_i) over the blocks UU, XU, XX and
    # then UX in (X, U) order; only XU is not an entry of the tables
    xu = _ambient(calc, r4, xv[:, :, None], uv[:, None], uv[:, None], xv[:, :, None])
    tables = (_ijji(uuuu), xu, _ijji(xxxx), np.swapaxes(_ijji(uxxu), 1, 2))
    four_block = point_sums(np.concatenate([t.reshape(len(t), -1) for t in tables], axis=1))
    res["S2"] = np.abs(four_block - two_tau)

    rhs_s3 = (
        2.0 * tau_hat
        + 2.0 * tau_star
        + data.n_norm_sq
        - data.sum_t_sq
        + 3.0 * data.sum_a_sq
        + 2.0 * delta_n
        - 2.0 * data.norm_tv_sq
        + 2.0 * data.norm_ah_sq
    )
    res["S3"] = np.abs(two_tau - rhs_s3)

    # exchange formulas against the closed-form ambient curvature on the
    # same tuples; the last pairing of each correction is the one before it
    # with a and b swapped
    swap = (0, 2, 1, 3, 4)
    tu, ax = data.t_frame[:, :r, :r], data.a_frame[:, r:, r:]
    x = calc.pairings(tu[:, :, None, None, :], tu[:, None, :, :, None])
    corr = -x + x.transpose(swap)
    via_closed = _frame_table(calc, r4_closed, uv, uv, uv, uv) + corr
    res["R1"] = point_maxima(np.abs(uuuu + corr - via_closed))
    x = calc.pairings(ax[:, None, :, :, None], ax[:, :, None, None, :])
    corr = 2.0 * calc.pairings(ax[:, :, :, None, None], ax[:, None, None]) - x + x.transpose(swap)
    via_closed = _frame_table(calc, r4_closed, xv, xv, xv, xv) + corr
    res["R2"] = point_maxima(np.abs(xxxx + corr - via_closed))

    # the mixed exchange identity from both tensors' first derivatives, its
    # tables indexed [p, i, k, j, l] for X_i, U_k, X_j, U_l (nab_t [p, i, k, l],
    # nab_a [p, i, k, j])
    ks, js = np.arange(r), np.arange(n)
    nab_t = calc.nabla_t_frame(r + js[:, None, None], ks[None, :, None], ks[None, None, :])
    nab_a = calc.nabla_a_frame(ks[None, :, None], js[:, None, None], js[None, None, :])
    t_mixed = np.swapaxes(data.t_frame[:, :r, r:], 1, 2)  # [p, i, k]: T(U_k, X_i)
    a_mixed = data.a_frame[:, r:, :r]  # [p, i, k]: A(X_i, U_k)
    rhs = (
        calc.pairings(nab_t[:, :, :, None], xv[:, None, None, :, None])
        + calc.pairings(nab_a[..., None, :], uv[:, None, None, None])
        - calc.pairings(t_mixed[:, :, :, None, None], t_mixed[:, None, None])
        + calc.pairings(a_mixed[:, None, None], a_mixed[:, :, :, None, None])
    )
    res["gauss3"] = point_maxima(np.abs(uxxu.transpose(0, 2, 1, 3, 4) - rhs))
    return res


def analyze_point(sub: SubmersionModel, state: SpaceFormData) -> PointAnalysis:
    """The analysis of the block of points of ``state``, the total space's
    data on the block, as for ``PointCalculus``."""
    calc = PointCalculus(sub, state)
    hat, star = _hat_star_tables(calc)
    return PointAnalysis(
        calc,
        tensors_from_calculus(calc),
        tau_hat=np.sum(np.triu(hat, k=1), axis=(1, 2)),
        tau_star=np.sum(np.triu(star, k=1), axis=(1, 2)),
        # the traces of _frame_trace: summed over the first frame index
        ric_hat=running_sum(np.moveaxis(hat, 1, 0)),
        ric_star=running_sum(np.moveaxis(star, 1, 0)),
        delta_n=calc.delta_n(),
    )
