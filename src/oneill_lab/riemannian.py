"""Metric, Levi-Civita connection, and curvature at a chart point.

Everything is evaluated pointwise through jets: metric entries are order-2
jets, so Christoffel symbols come out with exact first partials and the
Riemann tensor needs no finite differencing anywhere.

Index conventions, fixed once:
  gamma[k, i, j]        Christoffel symbol of nabla_{d_i} d_j, component k
  dgamma[k, i, j, a]    its partial derivative in direction a
  r13[l, i, j, k]       component l of R(d_i, d_j) d_k
  r4[i, j, k, l]        pairing g(R(d_i, d_j) d_k, d_l)
with R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    OutOfDomainError,
    RejectedInputError,
)
from .jets import as_jet, seed

_PD_FLOOR = 1e-12


@dataclass(frozen=True)
class VectorField:
    """Chart vector field: one callable per component, fed coordinate jets."""

    components: tuple
    name: str = ""

    def evaluate(self, vars, dim: int, order: int = 2) -> list:
        return [as_jet(c(vars), dim, order=order) for c in self.components]


@dataclass(frozen=True)
class ManifoldModel:
    """A chart with a metric given entrywise as callables over the chart jets."""

    name: str
    dim: int
    chart: tuple
    metric: tuple  # dim x dim nested tuple of callables; only i<=j is read
    domain_guard: Optional[Callable[[np.ndarray], bool]] = None

    def check_domain(self, coords: np.ndarray) -> None:
        if self.domain_guard is not None and not self.domain_guard(coords):
            raise OutOfDomainError(
                f"point {coords.tolist()} outside domain of model {self.name!r}"
            )


@dataclass(frozen=True)
class MetricData:
    """Metric and derivatives at one point, plus the inverse and its partials."""

    value: np.ndarray  # (d, d)
    d1: np.ndarray  # (d, d, a) = partial_a g_ij
    d2: np.ndarray  # (d, d, a, b)
    inverse: np.ndarray  # (d, d)
    dinverse: np.ndarray  # (a, d, d) = partial_a g^ij


def metric_at(model: ManifoldModel, coords, order: int = 2) -> MetricData:
    """Evaluate the metric jets at ``coords``; upper triangle only, mirrored."""
    pt = seed(coords, order=order)
    model.check_domain(pt.coords)
    d = model.dim
    if pt.dim != d:
        raise RejectedInputError(f"point has dim {pt.dim}, model {model.name!r} has {d}")
    value = np.zeros((d, d))
    d1 = np.zeros((d, d, d))
    d2 = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(i, d):
            jet = as_jet(model.metric[i][j](pt.vars), d, order=order)
            value[i, j] = value[j, i] = jet.value
            d1[i, j, :] = d1[j, i, :] = jet.gradient
            if order == 2:
                d2[i, j, :, :] = d2[j, i, :, :] = jet.hessian
    eigs = np.linalg.eigvalsh(value)
    if eigs[0] <= _PD_FLOOR:
        raise DegenerateMetricError(
            f"metric of {model.name!r} not positive definite at {pt.coords.tolist()}: "
            f"min eigenvalue {eigs[0]:.3e}"
        )
    inverse = np.linalg.inv(value)
    # d(g^-1) = -g^-1 (dg) g^-1, one slab per coordinate direction
    dinverse = -np.einsum("im,mna,nj->aij", inverse, d1, inverse)
    return MetricData(value=value, d1=d1, d2=d2, inverse=inverse, dinverse=dinverse)


@dataclass(frozen=True)
class ConnectionData:
    metric: MetricData
    gamma: np.ndarray  # (k, i, j)
    dgamma: np.ndarray  # (k, i, j, a)


def christoffel_at(model: ManifoldModel, coords) -> ConnectionData:
    g = metric_at(model, coords, order=2)
    # w[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    w = (
        np.einsum("jli->lij", g.d1)
        + np.einsum("ilj->lij", g.d1)
        - np.einsum("ijl->lij", g.d1)
    )
    gamma = 0.5 * np.einsum("kl,lij->kij", g.inverse, w)
    dw = (
        np.einsum("jlia->lija", g.d2)
        + np.einsum("ilja->lija", g.d2)
        - np.einsum("ijla->lija", g.d2)
    )
    dgamma = 0.5 * np.einsum("akl,lij->kija", g.dinverse, w) + 0.5 * np.einsum(
        "kl,lija->kija", g.inverse, dw
    )
    return ConnectionData(metric=g, gamma=gamma, dgamma=dgamma)


@dataclass(frozen=True)
class CurvatureData:
    metric: MetricData
    gamma: np.ndarray
    dgamma: np.ndarray
    r13: np.ndarray  # (l, i, j, k)
    r4: np.ndarray  # (i, j, k, l)


def riemann_at(model: ManifoldModel, coords) -> CurvatureData:
    return curvature_from_connection(christoffel_at(model, coords))


def curvature_from_connection(conn: ConnectionData) -> CurvatureData:
    """Riemann tensor from Christoffel symbols already evaluated at a point."""
    gamma, dgamma = conn.gamma, conn.dgamma
    # R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    r13 = (
        np.einsum("ljki->lijk", dgamma)
        - np.einsum("likj->lijk", dgamma)
        + np.einsum("lim,mjk->lijk", gamma, gamma)
        - np.einsum("ljm,mik->lijk", gamma, gamma)
    )
    r4 = np.einsum("ml,mijk->ijkl", conn.metric.value, r13)
    return CurvatureData(
        metric=conn.metric, gamma=gamma, dgamma=dgamma, r13=r13, r4=r4
    )


def ricci_from_curvature(curv: CurvatureData) -> np.ndarray:
    """Ric_jk = R^a_{ajk}; convention Ric(Y, Z) = sum_a R(e_a, Y, Z, e_a)."""
    return np.einsum("aajk->jk", curv.r13)


def scalar_curvature(curv: CurvatureData) -> float:
    """Coordinate-trace scalar curvature g^{jk} Ric_jk."""
    return float(np.einsum("jk,jk->", curv.metric.inverse, ricci_from_curvature(curv)))


def metric_values_raw(model: ManifoldModel, coords) -> np.ndarray:
    """Metric value matrix without the positive-definiteness gate.

    Needed for diagnostics on declared base metrics that fail PD on their
    own domain; the domain guard still applies.
    """
    pt = seed(coords, order=1)
    model.check_domain(pt.coords)
    d = model.dim
    value = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            jet = as_jet(model.metric[i][j](pt.vars), d, order=1)
            value[i, j] = value[j, i] = jet.value
    return value


def pair_r4(curv: CurvatureData, x, y, z, w) -> float:
    """R(X, Y, Z, W) for chart component vectors."""
    return float(np.einsum("ijkl,i,j,k,l->", curv.r4, x, y, z, w))


def sectional_curvature(model: ManifoldModel, coords, x, y) -> float:
    """K(span{X, Y}) = R(X, Y, Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)."""
    curv = riemann_at(model, coords)
    gv = curv.metric.value
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = float(x @ gv @ x)
    yy = float(y @ gv @ y)
    xy = float(x @ gv @ y)
    denom = xx * yy - xy * xy
    if denom < 1e-12:
        raise DegeneratePlaneError(f"2-plane degenerate: Gram determinant {denom:.3e}")
    return pair_r4(curv, x, y, y, x) / denom
