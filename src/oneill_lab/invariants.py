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

from .riemannian import pair_r4, scalar_curvature
from .submersion import (
    OneillData,
    PointCalculus,
    SubmersionModel,
    tensors_from_calculus,
)


def fiber_curvature_hat(calc: PointCalculus, u, v, f, w) -> float:
    """Curvature of the vertical block: ambient value corrected by the
    vertical-block tensor.  Slot order matches the ambient pairing."""
    amb = pair_r4(calc.curvature, u, v, f, w)
    return (
        amb
        - calc.pair_values(calc.t_point(u, w), calc.t_point(v, f))
        + calc.pair_values(calc.t_point(v, w), calc.t_point(u, f))
    )


def horizontal_curvature_star(calc: PointCalculus, x, y, z, h) -> float:
    """Curvature of the horizontal block: ambient value corrected by the
    horizontal-block tensor."""
    amb = pair_r4(calc.curvature, x, y, z, h)
    return (
        amb
        + 2.0 * calc.pair_values(calc.a_point(x, y), calc.a_point(z, h))
        - calc.pair_values(calc.a_point(y, z), calc.a_point(x, h))
        + calc.pair_values(calc.a_point(x, z), calc.a_point(y, h))
    )


def ric_hat_probe(calc: PointCalculus, u) -> float:
    """Vertical-block Ricci value on a (unit) vertical vector: trace of the
    block curvature over the vertical frame.  The diagonal term vanishes
    identically, so the full-frame sum matches the sum over complements."""
    return sum(
        fiber_curvature_hat(calc, wb, u, u, wb) for wb in calc.frame.vert_values
    )


def ric_star_probe(calc: PointCalculus, x) -> float:
    """Horizontal-block Ricci value on a (unit) horizontal vector."""
    return sum(
        horizontal_curvature_star(calc, xt, x, x, xt)
        for xt in calc.frame.horiz_values
    )


def mixed_gauss_residual(calc: PointCalculus) -> float:
    """Worst residual of the mixed exchange identity over frame 4-tuples
    (one vertical pair, one horizontal pair), using the first derivatives
    of both fundamental tensors."""
    r, n, fr = calc.r, calc.n, calc.frame
    uv, xv = fr.vert_values, fr.horiz_values
    t_mixed = [[calc.t_point(uv[k], xv[i]) for i in range(n)] for k in range(r)]
    a_mixed = [[calc.a_point(xv[i], uv[k]) for k in range(r)] for i in range(n)]
    nab_t = [
        [[calc.nabla_t_frame(xv[i], k, l) for l in range(r)] for k in range(r)]
        for i in range(n)
    ]
    nab_a = [
        [[calc.nabla_a_frame(uv[k], i, j) for j in range(n)] for i in range(n)]
        for k in range(r)
    ]
    worst = 0.0
    for i in range(n):
        for k in range(r):
            for j in range(n):
                for l in range(r):
                    lhs = pair_r4(calc.curvature, uv[k], xv[i], xv[j], uv[l])
                    rhs = (
                        calc.pair_values(nab_t[i][k][l], xv[j])
                        + calc.pair_values(nab_a[k][i][j], uv[l])
                        - calc.pair_values(t_mixed[k][i], t_mixed[l][j])
                        + calc.pair_values(a_mixed[j][l], a_mixed[i][k])
                    )
                    worst = max(worst, abs(lhs - rhs))
    return float(worst)


@dataclass(frozen=True)
class CurvaturePacket:
    """Scalar curvature aggregates of a submersion model at one point.

    ``tau_hat``/``tau_star`` are the block scalar curvatures stored
    undoubled; ``tau_total`` is half the coordinate-trace scalar curvature
    of the total space.  ``identity_residuals`` maps the stable identity ids
    {T1, T4, S1, S2, S3, R1, R2, gauss3} to max absolute residuals."""

    point: np.ndarray
    r: int
    n: int
    c: float
    tau_hat: float
    tau_star: float
    tau_total: float
    ric_hat: np.ndarray
    ric_star: np.ndarray
    delta_n: float
    sum_t_sq: float
    sum_a_sq: float
    norm_tv_sq: float
    norm_ah_sq: float
    n_norm_sq: float
    trace_phi_b: float
    identity_residuals: dict


@dataclass
class PointAnalysis:
    """Everything the theorem layer needs at one point."""

    calc: PointCalculus
    data: OneillData
    packet: CurvaturePacket


def _hat_star_tables(calc: PointCalculus, data: OneillData):
    r, n = calc.r, calc.n
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    g = calc.conn.metric.value
    hat = np.zeros((r, r))
    for j in range(r):
        for k in range(r):
            if j == k:
                continue
            amb = pair_r4(calc.curvature, uv[j], uv[k], uv[k], uv[j])
            hat[j, k] = (
                amb
                - float(data.t_uu[j][j] @ g @ data.t_uu[k][k])
                + float(data.t_uu[k][j] @ g @ data.t_uu[j][k])
            )
    star = np.zeros((n, n))
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            amb = pair_r4(calc.curvature, xv[s], xv[t], xv[t], xv[s])
            star[s, t] = (
                amb
                + 2.0 * float(data.a_xx[s][t] @ g @ data.a_xx[t][s])
                - float(data.a_xx[t][t] @ g @ data.a_xx[s][s])
                + float(data.a_xx[s][t] @ g @ data.a_xx[t][s])
            )
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
    four_block = 0.0
    for j in range(r):
        for k in range(r):
            four_block += pair_r4(calc.curvature, uv[j], uv[k], uv[k], uv[j])
    for i in range(n):
        for k in range(r):
            four_block += pair_r4(calc.curvature, xv[i], uv[k], uv[k], xv[i])
    for i in range(n):
        for s in range(n):
            four_block += pair_r4(calc.curvature, xv[i], xv[s], xv[s], xv[i])
    for s in range(n):
        for j in range(r):
            four_block += pair_r4(calc.curvature, uv[j], xv[s], xv[s], uv[j])
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

    # exchange formulas against the closed-form ambient curvature
    r4_closed = calc.closed_curvature
    g = calc.conn.metric.value

    def closed_pair(x, y, z, h):
        return float(np.einsum("ijkl,i,j,k,l->", r4_closed, x, y, z, h))

    worst = 0.0
    for a in range(r):
        for b in range(r):
            for cc in range(r):
                for dd in range(r):
                    corr = -float(data.t_uu[a][dd] @ g @ data.t_uu[b][cc]) + float(
                        data.t_uu[b][dd] @ g @ data.t_uu[a][cc]
                    )
                    via_ad = (
                        pair_r4(calc.curvature, uv[a], uv[b], uv[cc], uv[dd]) + corr
                    )
                    via_closed = closed_pair(uv[a], uv[b], uv[cc], uv[dd]) + corr
                    worst = max(worst, abs(via_ad - via_closed))
    res["R1"] = worst
    worst = 0.0
    for s in range(n):
        for t in range(n):
            for uu in range(n):
                for vv in range(n):
                    corr = (
                        2.0 * float(data.a_xx[s][t] @ g @ data.a_xx[uu][vv])
                        - float(data.a_xx[t][uu] @ g @ data.a_xx[s][vv])
                        + float(data.a_xx[s][uu] @ g @ data.a_xx[t][vv])
                    )
                    via_ad = (
                        pair_r4(calc.curvature, xv[s], xv[t], xv[uu], xv[vv]) + corr
                    )
                    via_closed = closed_pair(xv[s], xv[t], xv[uu], xv[vv]) + corr
                    worst = max(worst, abs(via_ad - via_closed))
    res["R2"] = worst
    res["gauss3"] = mixed_gauss_residual(calc)
    return res


def analyze_point(sub: SubmersionModel, coords) -> PointAnalysis:
    calc = PointCalculus(sub, coords)
    data = tensors_from_calculus(calc)
    two_tau = scalar_curvature(calc.curvature)
    hat, star = _hat_star_tables(calc, data)
    tau_hat = float(np.sum(np.triu(hat, k=1)))
    tau_star = float(np.sum(np.triu(star, k=1)))
    ric_hat = hat.sum(axis=0)
    ric_star = star.sum(axis=0)
    delta_n = calc.delta_n()
    residuals = _identity_residuals(calc, data, tau_hat, tau_star, two_tau, delta_n)
    packet = CurvaturePacket(
        point=calc.coords.copy(),
        r=calc.r,
        n=calc.n,
        c=float(sub.total.c),
        tau_hat=tau_hat,
        tau_star=tau_star,
        tau_total=two_tau / 2.0,
        ric_hat=ric_hat,
        ric_star=ric_star,
        delta_n=delta_n,
        sum_t_sq=data.sum_t_sq,
        sum_a_sq=data.sum_a_sq,
        norm_tv_sq=data.norm_tv_sq,
        norm_ah_sq=data.norm_ah_sq,
        n_norm_sq=data.n_norm_sq,
        trace_phi_b=data.trace_phi_b,
        identity_residuals=residuals,
    )
    return PointAnalysis(calc=calc, data=data, packet=packet)

