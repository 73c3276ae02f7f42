"""Metric, Levi-Civita connection, and curvature on blocks of chart points.

Everything is evaluated through jets on a block of sample points, the point
axis leading. :func:`model_jets` is the one evaluator of model expressions:
it runs a table of model callables once on the coordinate jets of
:func:`jets.seed_block`. Every model expression of the package goes through
it: the metric entries here, the contact data of ``contact``, and the
projection, base metric and declared fields of ``submersion``. So Christoffel symbols come out with exact first partials
and the Riemann tensor needs no finite differencing anywhere. The samples
are cut into blocks by :func:`point_blocks`, which bounds the memory of the
d^4-sized arrays.

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

from .errors import DegenerateMetricError, OutOfDomainError, RejectedInputError
from .jets import ArrayJet, seed_block

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


def running_sum(values) -> np.ndarray:
    """Sum over the leading axis, added term by term from 0.0 in index
    order, where ``np.sum`` would add pairwise: the last row of
    ``np.add.accumulate`` over ``values`` with a zero row prepended."""
    values = np.asarray(values, dtype=float)
    rows = np.concatenate([np.zeros((1,) + values.shape[1:]), values])
    return np.add.accumulate(rows)[-1]


def model_jets(table, vs) -> ArrayJet:
    """Jets of a table of model callables on a block of points.

    Each callable of the (nested) sequence ``table`` runs once, in row-major
    order, on the coordinate jets ``vs`` of :func:`jets.seed_block`. The
    result has the point axis first, then the shape of the table. A callable
    that returns a float holds at every point, with zero derivatives."""
    funcs = np.asarray(table, dtype=object)
    n, d = vs[0].gradient.shape
    value = np.zeros((n, funcs.size))
    gradient = np.zeros((n, funcs.size, d))
    hessian = None if vs[0].hessian is None else np.zeros((n, funcs.size, d, d))
    for k, f in enumerate(funcs.flat):
        entry = f(vs)
        if not isinstance(entry, ArrayJet):
            value[:, k] = float(entry)
            continue
        value[:, k] = entry.value
        gradient[:, k] = entry.gradient
        if hessian is not None:
            hessian[:, k] = entry.hessian
    return ArrayJet(value, gradient, hessian).reshape((n,) + funcs.shape)


@dataclass(frozen=True)
class VectorField:
    """Chart vector field: one callable per component, fed coordinate jets."""

    components: tuple
    name: str = ""


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


def metric_jets(model: ManifoldModel, points, order: int) -> ArrayJet:
    """The metric's jets on a block of points ``(N, d)``, shape ``(N, d, d)``:
    the upper triangle evaluated, then mirrored. The domain check runs for
    every point and raises for the first failing one; there is no
    positive-definiteness gate."""
    vs = seed_block(points, order=order)
    pts = np.asarray(points, dtype=float)
    for coords in pts:
        model.check_domain(coords)
    dim = pts.shape[1]
    d = model.dim
    if dim != d:
        raise RejectedInputError(f"point has dim {dim}, model {model.name!r} has {d}")
    rows, cols = np.triu_indices(d)
    upper = model_jets([model.metric[i][j] for i, j in zip(rows, cols)], vs)
    # entry (i, j) of the metric is entry (min(i, j), max(i, j)) of the triangle
    slot = np.zeros((d, d), dtype=int)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    value, gradient = np.take(upper.value, slot, axis=1), np.take(upper.gradient, slot, axis=1)
    hessian = None if upper.hessian is None else np.take(upper.hessian, slot, axis=1)
    return ArrayJet(value, gradient, hessian)


def metric_at(model: ManifoldModel, points, order: int = 2) -> MetricData:
    """The metric jets of :func:`metric_jets` on a block of points, gated:
    the positive-definiteness check runs for every point and raises for the
    first failing one. A metric with an entry that is not finite fails it,
    and so does a NaN eigenvalue."""
    g = metric_jets(model, points, order)
    value, d1 = g.value, g.gradient
    d2 = np.zeros(d1.shape + d1.shape[-1:]) if g.hessian is None else g.hessian
    finite = np.isfinite(value).all(axis=(1, 2))
    # eigvalsh cannot take inf; a zero matrix in its place fails the gate
    low = np.linalg.eigvalsh(np.where(finite[:, None, None], value, 0.0))[:, 0]
    bad = np.flatnonzero(~(low > _PD_FLOOR))
    if bad.size:
        k = bad[0]
        why = f"min eigenvalue {low[k]:.3e}" if finite[k] else "entries not finite"
        raise DegenerateMetricError(
            f"metric of {model.name!r} not positive definite at "
            f"{np.asarray(points, dtype=float)[k].tolist()}: {why}"
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
    # w[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij; the permutations are
    # views of d1 and d2, and each sum is accumulated in place, left to right
    w = np.einsum("pjli->plij", g.d1) + np.einsum("pilj->plij", g.d1)
    w -= np.einsum("pijl->plij", g.d1)
    gamma = 0.5 * np.einsum("pkl,plij->pkij", g.inverse, w)
    dw = np.einsum("pjlia->plija", g.d2) + np.einsum("pilja->plija", g.d2)
    dw -= np.einsum("pijla->plija", g.d2)
    dgamma = np.einsum("pakl,plij->pkija", g.dinverse, w)
    dgamma *= 0.5
    del w
    term = np.einsum("pkl,plija->pkija", g.inverse, dw)
    del dw
    term *= 0.5
    dgamma += term
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
    # the first two terms are views of dgamma; the sum runs in place
    r13 = np.einsum("pljki->plijk", dgamma) - np.einsum("plikj->plijk", dgamma)
    r13 += np.einsum("plim,pmjk->plijk", gamma, gamma)
    r13 -= np.einsum("pljm,pmik->plijk", gamma, gamma)
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


def pair_r4(r4: np.ndarray, x, y, z, w):
    """R(X, Y, Z, W) from a curvature in the slots of ``CurvatureData.r4``,
    for chart component vectors of shape ``(..., d)`` broadcast against each
    other: one value per broadcast index, a scalar for four single vectors.

    The broadcast axes stay outside the sum over the four slots, so each
    value is summed in the same order as for single vectors: a table of
    frame 4-tuples equals its entries taken one tuple at a time, bit for
    bit."""
    return np.einsum("ijkl,...i,...j,...k,...l->...", r4, x, y, z, w)
