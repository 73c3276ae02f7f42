"""Metric, Levi-Civita connection, and curvature on blocks of chart points.

Everything is evaluated through jets on a block of sample points, the point
axis leading: each metric entry's callable runs once per block on the
coordinate jets of :func:`jets.seed_block`, so Christoffel symbols come out
with exact first partials and the Riemann tensor needs no finite
differencing anywhere. The samples are cut into blocks by
:func:`point_blocks`, which bounds the memory of the d^4-sized arrays.

Index conventions, fixed once (each array has a leading point axis ``p``
on a block; ``data[k]`` is the same record at point ``k``):
  gamma[k, i, j]        Christoffel symbol of nabla_{d_i} d_j, component k
  dgamma[k, i, j, a]    its partial derivative in direction a
  r13[l, i, j, k]       component l of R(d_i, d_j) d_k
  r4[i, j, k, l]        pairing g(R(d_i, d_j) d_k, d_l)
with R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z.

Every contraction is an ``np.einsum`` without ``optimize=``, with the point
axis as an extra batch index, so each point's sums run in the same order as
for a block of one point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateMetricError,
    DegeneratePlaneError,
    OutOfDomainError,
    RejectedInputError,
)
from .jets import ArrayJet, as_jet, seed, seed_block

_PD_FLOOR = 1e-12

# Float64 entries of the largest d^4-sized array of a block (256 KiB).
_BLOCK_ENTRIES = 32768


def point_blocks(points, dim: int):
    """Consecutive blocks of ``max(1, 32768 // dim**4)`` sample points, so
    every d^4-sized array of a block (second metric partials, connection
    partials, curvature) stays at or below 256 KiB."""
    size = max(1, _BLOCK_ENTRIES // dim**4)
    for start in range(0, len(points), size):
        yield points[start : start + size]


class PointAxis:
    """Mixin for records of arrays with a leading point axis:
    ``data[k]`` is the same record at point ``k`` of the block."""

    def __getitem__(self, k):
        return type(self)(**{f.name: getattr(self, f.name)[k] for f in fields(self)})


def max_residual(values, start: float = 0.0) -> float:
    """Largest of ``start`` and ``values``, NaN if any of them is NaN, so
    that a NaN residual fails the check it feeds (``max`` would drop it)."""
    return float(np.max(np.asarray(values, dtype=float), initial=start))


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
class MetricData(PointAxis):
    """Metric and derivatives, plus the inverse and its partials."""

    value: np.ndarray  # (p, d, d)
    d1: np.ndarray  # (p, d, d, a) = partial_a g_ij
    d2: np.ndarray  # (p, d, d, a, b)
    inverse: np.ndarray  # (p, d, d)
    dinverse: np.ndarray  # (p, a, d, d) = partial_a g^ij


def metric_at(model: ManifoldModel, points, order: int = 2) -> MetricData:
    """Evaluate the metric jets on a block of points ``(N, d)``; upper
    triangle only, mirrored. The domain and positive-definiteness checks
    run for every point and raise for the first failing one."""
    vs = seed_block(points, order=order)
    pts = np.asarray(points, dtype=float)
    for coords in pts:
        model.check_domain(coords)
    n, dim = pts.shape
    d = model.dim
    if dim != d:
        raise RejectedInputError(f"point has dim {dim}, model {model.name!r} has {d}")
    value = np.zeros((n, d, d))
    d1 = np.zeros((n, d, d, d))
    d2 = np.zeros((n, d, d, d, d))
    for i in range(d):
        for j in range(i, d):
            entry = model.metric[i][j](vs)
            if not isinstance(entry, ArrayJet):
                value[:, i, j] = value[:, j, i] = float(entry)
                continue
            value[:, i, j] = value[:, j, i] = entry.value
            d1[:, i, j, :] = d1[:, j, i, :] = entry.gradient
            if order == 2:
                d2[:, i, j, :, :] = d2[:, j, i, :, :] = entry.hessian
    low = np.linalg.eigvalsh(value)[:, 0]
    bad = np.flatnonzero(low <= _PD_FLOOR)
    if bad.size:
        k = bad[0]
        raise DegenerateMetricError(
            f"metric of {model.name!r} not positive definite at {pts[k].tolist()}: "
            f"min eigenvalue {low[k]:.3e}"
        )
    inverse = np.linalg.inv(value)
    # d(g^-1) = -g^-1 (dg) g^-1, one slab per coordinate direction
    dinverse = -np.einsum("pim,pmna,pnj->paij", inverse, d1, inverse)
    return MetricData(value=value, d1=d1, d2=d2, inverse=inverse, dinverse=dinverse)


@dataclass(frozen=True)
class ConnectionData(PointAxis):
    metric: MetricData
    gamma: np.ndarray  # (p, k, i, j)
    dgamma: np.ndarray  # (p, k, i, j, a)


def christoffel_at(model: ManifoldModel, points) -> ConnectionData:
    """Christoffel symbols and their partials on a block of points."""
    g = metric_at(model, points, order=2)
    # w[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    w = (
        np.einsum("pjli->plij", g.d1)
        + np.einsum("pilj->plij", g.d1)
        - np.einsum("pijl->plij", g.d1)
    )
    gamma = 0.5 * np.einsum("pkl,plij->pkij", g.inverse, w)
    dw = (
        np.einsum("pjlia->plija", g.d2)
        + np.einsum("pilja->plija", g.d2)
        - np.einsum("pijla->plija", g.d2)
    )
    dgamma = 0.5 * np.einsum("pakl,plij->pkija", g.dinverse, w) + 0.5 * np.einsum(
        "pkl,plija->pkija", g.inverse, dw
    )
    return ConnectionData(metric=g, gamma=gamma, dgamma=dgamma)


@dataclass(frozen=True)
class CurvatureData(PointAxis):
    metric: MetricData
    gamma: np.ndarray
    dgamma: np.ndarray
    r13: np.ndarray  # (p, l, i, j, k)
    r4: np.ndarray  # (p, i, j, k, l)


def riemann_at(model: ManifoldModel, coords) -> CurvatureData:
    """Curvature at one point: a block of one, sliced."""
    points = np.asarray(coords, dtype=float)[None]
    return curvature_from_connection(christoffel_at(model, points))[0]


def curvature_from_connection(conn: ConnectionData) -> CurvatureData:
    """Riemann tensor from a block's Christoffel symbols."""
    gamma, dgamma = conn.gamma, conn.dgamma
    # R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    r13 = (
        np.einsum("pljki->plijk", dgamma)
        - np.einsum("plikj->plijk", dgamma)
        + np.einsum("plim,pmjk->plijk", gamma, gamma)
        - np.einsum("pljm,pmik->plijk", gamma, gamma)
    )
    r4 = np.einsum("pml,pmijk->pijkl", conn.metric.value, r13)
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
