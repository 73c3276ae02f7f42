"""Block curvature aggregates and pointwise identity residuals.

The curvature of the vertical block (fiber direction) and of the horizontal
block is defined through the Gauss-type exchange formulas, feeding the
ambient curvature computed by automatic differentiation and correcting with
the fundamental tensors.  The residual suite cross-checks these against the
closed-form ambient curvature of a constant phi-sectional-curvature space
and against the scalar-level trace identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import SpaceFormData
from .riemannian import max_residual, pair_r4, running_sum, scalar_curvature
from .submersion import (
    OneillData,
    PointCalculus,
    SubmersionModel,
    tensors_from_calculus,
)


def fiber_curvature_hat(calc: PointCalculus, u, v, f, w):
    """Curvature of the vertical block: ambient value corrected by the
    vertical-block tensor.  Slot order matches the ambient pairing.

    The vectors have shape ``(..., dim)`` and broadcast against each other;
    each value equals the one for single vectors, bit for bit."""
    amb = pair_r4(calc.curvature.r4, u, v, f, w)
    return (
        amb
        - calc.pairings(calc.t_point(u, w), calc.t_point(v, f))
        + calc.pairings(calc.t_point(v, w), calc.t_point(u, f))
    )


def horizontal_curvature_star(calc: PointCalculus, x, y, z, h):
    """Curvature of the horizontal block: ambient value corrected by the
    horizontal-block tensor; vectors broadcast as in ``fiber_curvature_hat``."""
    amb = pair_r4(calc.curvature.r4, x, y, z, h)
    return (
        amb
        + 2.0 * calc.pairings(calc.a_point(x, y), calc.a_point(z, h))
        - calc.pairings(calc.a_point(y, z), calc.a_point(x, h))
        + calc.pairings(calc.a_point(x, z), calc.a_point(y, h))
    )


def _frame_trace(block_curvature, calc, frame, probes) -> np.ndarray:
    """Sum over the frame vectors e of block_curvature(e, p, p, e), one
    value per probe p, added frame vector by frame vector from 0.0."""
    e = frame[:, None]
    return running_sum(block_curvature(calc, e, probes, probes, e))


def ric_hat_probes(calc: PointCalculus, us) -> np.ndarray:
    """Vertical-block Ricci values on (unit) vertical vectors ``us``, shaped
    (P, dim): traces of the block curvature over the vertical frame.  The
    diagonal term vanishes identically, so the full-frame sum matches the
    sum over complements."""
    return _frame_trace(fiber_curvature_hat, calc, calc.frame.vert_values, us)


def ric_star_probes(calc: PointCalculus, xs) -> np.ndarray:
    """Horizontal-block Ricci values on (unit) horizontal vectors ``xs``."""
    return _frame_trace(horizontal_curvature_star, calc, calc.frame.horiz_values, xs)


def _frame_table(r4, a, b, c, d) -> np.ndarray:
    """R(a_i, b_j, c_k, d_l) on all 4-tuples of the rows of a, b, c, d."""
    return pair_r4(
        r4,
        a[:, None, None, None],
        b[None, :, None, None],
        c[None, None, :, None],
        d[None, None, None, :],
    )


def mixed_gauss_residual(calc: PointCalculus) -> float:
    """Worst residual of the mixed exchange identity over frame 4-tuples
    (one vertical pair, one horizontal pair), using the first derivatives
    of both fundamental tensors."""
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    ks, js = np.arange(calc.r), np.arange(calc.n)
    # every table is indexed [i, k, j, l] for the frame vectors X_i, U_k, X_j, U_l
    nab_t = calc.nabla_t_frame(xv[:, None, None], ks[:, None], ks)  # [i, k, l]
    nab_a = calc.nabla_a_frame(uv[None, :, None], js[:, None, None], js)  # [i, k, j]
    t_mixed = calc.t_point(uv, xv[:, None])  # [i, k]: T(U_k, X_i)
    a_mixed = calc.a_point(xv[:, None], uv)  # [i, k]: A(X_i, U_k)
    lhs = _frame_table(calc.curvature.r4, uv, xv, xv, uv).transpose(1, 0, 2, 3)
    rhs = (
        calc.pairings(nab_t[:, :, None], xv[:, None])
        + calc.pairings(nab_a[..., None, :], uv)
        - calc.pairings(t_mixed[:, :, None, None], t_mixed)
        + calc.pairings(a_mixed, a_mixed[:, :, None, None])
    )
    return max_residual(np.abs(lhs - rhs))


@dataclass(frozen=True)
class PointAnalysis:
    """Everything the report sections need at one point: the point's
    ``PointCalculus`` and tensor data, the block scalar curvatures
    ``tau_hat``/``tau_star`` (stored undoubled), the divergence trace
    ``delta_n``, and ``identity_residuals``, which maps the stable identity
    ids {T1, T4, S1, S2, S3, R1, R2, gauss3} to max absolute residuals."""

    calc: PointCalculus
    data: OneillData
    tau_hat: float
    tau_star: float
    delta_n: float
    identity_residuals: dict


def _hat_star_tables(calc: PointCalculus):
    """Block curvatures on the frame pairs: hat[j, k] on the vertical pair
    (U_j, U_k), star[s, t] on the horizontal pair (X_s, X_t), zero on the
    diagonal."""
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    hat = fiber_curvature_hat(calc, uv[:, None], uv, uv, uv[:, None])
    star = horizontal_curvature_star(calc, xv[:, None], xv, xv, xv[:, None])
    np.fill_diagonal(hat, 0.0)
    np.fill_diagonal(star, 0.0)
    return hat, star


def _identity_residuals(calc, data, tau_hat, tau_star, two_tau, delta_n):
    c = calc.sub.total.c
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    r, n = calc.r, calc.n
    tc = data.t_coeff
    res = {}

    # quadratic rearrangement of the vertical-block coefficients
    d_s = tc[0, 0, :] - np.sum(np.diagonal(tc[1:, 1:, :], axis1=0, axis2=1), axis=1) if r > 1 else tc[0, 0, :]
    cross = 0.0
    for s in range(n):
        for a in range(1, r):
            for b in range(a + 1, r):
                cross += tc[a, a, s] * tc[b, b, s] - tc[a, b, s] ** 2
    rhs_t1 = (
        0.5 * data.n_norm_sq
        + 0.5 * float(np.sum(d_s**2))
        + 2.0 * float(np.sum(tc[0, 1:, :] ** 2))
        - 2.0 * cross
    )
    res["T1"] = abs(data.sum_t_sq - rhs_t1)

    if calc.sub.xi_case == "vertical":
        rhs_t4 = q * r * (r - 1) - 2.0 * w * (r - 1) - data.n_norm_sq + data.sum_t_sq
    else:
        rhs_t4 = q * r * (r - 1) - data.n_norm_sq + data.sum_t_sq
    res["T4"] = abs(2.0 * tau_hat - rhs_t4)

    base_q = q * (r * (r - 1) + n * (n - 1) + 2 * n * r)
    if calc.sub.xi_case == "vertical":
        rhs_s1 = base_q + w * (4.0 * (r - 1) + n + 3.0 * data.trace_phi_b)
    else:
        rhs_s1 = base_q + w * (n + 3.0 * data.trace_phi_b + 4.0 * r - 7.0)
    res["S1"] = abs(two_tau - rhs_s1)

    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    r4 = calc.curvature.r4

    def traces(a, b):
        # [i, j]: R(a_i, b_j, b_j, a_i)
        return pair_r4(r4, a[:, None], b, b, a[:, None])

    # running sum over the blocks UU, XU, XX and then UX in (X, U) order
    tables = (traces(uv, uv), traces(xv, uv), traces(xv, xv), traces(uv, xv).T)
    four_block = float(running_sum(np.concatenate([t.ravel() for t in tables])))
    res["S2"] = abs(four_block - two_tau)

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
    res["S3"] = abs(two_tau - rhs_s3)

    # exchange formulas against the closed-form ambient curvature, on all
    # frame 4-tuples of each block, tables indexed [a, b, c, d]
    r4_closed = calc.closed_curvature
    tu, ax = data.t_uu, data.a_xx
    corr = -calc.pairings(tu[:, None, None, :], tu[None, :, :, None]) + calc.pairings(
        tu[None, :, None, :], tu[:, None, :, None]
    )
    via_ad = _frame_table(r4, uv, uv, uv, uv) + corr
    via_closed = _frame_table(r4_closed, uv, uv, uv, uv) + corr
    res["R1"] = max_residual(np.abs(via_ad - via_closed))
    corr = (
        2.0 * calc.pairings(ax[:, :, None, None], ax)
        - calc.pairings(ax[None, :, :, None], ax[:, None, None, :])
        + calc.pairings(ax[:, None, :, None], ax[None, :, None, :])
    )
    via_ad = _frame_table(r4, xv, xv, xv, xv) + corr
    via_closed = _frame_table(r4_closed, xv, xv, xv, xv) + corr
    res["R2"] = max_residual(np.abs(via_ad - via_closed))
    res["gauss3"] = mixed_gauss_residual(calc)
    return res


def analyze_point(
    sub: SubmersionModel, coords, state: SpaceFormData | None = None
) -> PointAnalysis:
    """The analysis of one point; ``state`` as for ``PointCalculus``."""
    calc = PointCalculus(sub, coords, state)
    data = tensors_from_calculus(calc)
    two_tau = scalar_curvature(calc.curvature)
    hat, star = _hat_star_tables(calc)
    tau_hat = float(np.sum(np.triu(hat, k=1)))
    tau_star = float(np.sum(np.triu(star, k=1)))
    delta_n = calc.delta_n()
    residuals = _identity_residuals(calc, data, tau_hat, tau_star, two_tau, delta_n)
    return PointAnalysis(calc, data, tau_hat, tau_star, delta_n, residuals)
