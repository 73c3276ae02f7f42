"""Metric, Levi-Civita connection, and curvature on blocks of chart points.

Everything is evaluated through jets on a block of sample points, the point
axis leading. :func:`model_jets` is the one evaluator of model expressions:
it runs a table of model callables once on the coordinate jets of
:func:`jets.seed_block`. Every model expression of the package goes through
it: the metric entries here, the contact data of ``contact``, the
projection, base metric and declared fields of ``submersion``, and the
domain and locus guards of :func:`guards_pass`.

Christoffel symbols come out with exact first partials, and the Riemann
tensor needs no finite differencing anywhere. The samples are cut into
blocks by :func:`point_blocks`, which bounds the memory of the d^4-sized
arrays. Every record is a block: each array leads with the point axis.

Index conventions, fixed once (after the leading point axis ``p``):
  gamma[k, i, j]        Christoffel symbol of nabla_{d_i} d_j, component k
  dgamma[k, i, j, a]    its partial derivative in direction a
  r13[l, i, j, k]       component l of R(d_i, d_j) d_k
  r4[i, j, k, l]        pairing g(R(d_i, d_j) d_k, d_l)
with R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z.

Every contraction is an ``np.einsum`` without ``optimize=``, with the point
axis as an extra batch index, so each point's sums run in the same order as
for a block of one point. :func:`pair_r4` keeps to einsums of three or more
operands, whose loop adds in index order (numpy's two-operand loops do not),
and holds at most ``4 * _BLOCK_ENTRIES`` entries of products at a time.

Strides are part of a result: einsum's loop follows its operands' strides,
and so does the order in which a later contraction adds its terms. The
lowered curvature ``r4`` and ``dinverse`` (:func:`_lower_first`,
:func:`_dinverse`) are spelled with their operands in a memory order where
einsum's loop is fast and still adds the same terms in the same order, and
are handed on in the strides of their plain spellings.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateMetricError,
    OutOfDomainError,
    RejectedInputError,
    SingularEvaluationError,
)
from .jets import ArrayJet, seed_block

_PD_FLOOR = 1e-12

# Float64 entries (256 KiB) of the largest array of a submersion block, of
# a run of ``pair_r4`` products (four times as many) and of one point's
# curvature; a total-space block's d^4-sized arrays get twice as many.
_BLOCK_ENTRIES = 32768


def point_blocks(points, dim: int, power: int = 4):
    """Consecutive blocks of sample points, so every array of d**power
    entries per point stays within a budget: power 4, for the total space
    (second metric partials, connection partials, curvature), takes
    ``max(1, 65536 // dim**4)`` points and 512 KiB arrays, since each block
    costs about 1 ms besides its arrays (the model tables and ~1,500 Python
    calls); power 5, for the jets of a submersion's per-point stages (a
    projection's pairings carry a d x d Hessian for each of d x d terms of
    each of d frame fields), takes ``max(1, 32768 // dim**5)`` points and
    256 KiB arrays."""
    budget = 2 * _BLOCK_ENTRIES if power == 4 else _BLOCK_ENTRIES
    size = max(1, budget // dim**power)
    for start in range(0, len(points), size):
        yield points[start : start + size]


def max_residual(values, start: float = 0.0) -> float:
    """Largest of ``start`` and ``values``, NaN if any of them is NaN, so
    that a NaN residual fails the check it feeds (``max`` would drop it)."""
    return float(np.max(np.asarray(values, dtype=float), initial=start))


def point_maxima(values) -> np.ndarray:
    """``max_residual`` of each point's values, the point axis leading."""
    values = np.asarray(values, dtype=float)
    return np.max(values.reshape(len(values), -1), axis=1, initial=0.0)


def point_sums(values) -> np.ndarray:
    """``running_sum`` of each point's values in row-major order, the point
    axis leading."""
    values = np.asarray(values, dtype=float)
    return running_sum(values.reshape(len(values), -1).T)


def float_squares(values) -> np.ndarray:
    """Squares as Python floats take them: a float's ``**`` is the C
    library's pow, which rounds some squares differently from numpy's
    ``e**2`` and ``np.square`` (both ``e * e``)."""
    values = np.asarray(values, dtype=float)
    return np.array([e**2 for e in values.ravel().tolist()]).reshape(values.shape)


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


def guards_pass(guards, points) -> np.ndarray:
    """Which points of a block ``(N, d)`` pass every one of the model
    callables ``guards``: where each guard's :func:`model_jets` value on the
    block's order-1 coordinate jets is above 0 and finite (an integer power
    that overflows is inf, not an error). Where the block's jets raise
    ``SingularEvaluationError``, the points are evaluated one at a time, and
    a point where they raise fails. A value that overflows or turns NaN
    rejects its point, so numpy does not warn of it."""
    pts = np.asarray(points, dtype=float)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = model_jets(guards, seed_block(pts, order=1)).value
        return np.all((value > 0.0) & (value < np.inf), axis=1)
    except SingularEvaluationError:  # a point alone where the jets raise fails
        return np.array([len(pts) > 1 and guards_pass(guards, [pt])[0] for pt in pts])


class VectorField(NamedTuple):
    """Chart vector field: one callable per component, fed coordinate jets."""

    components: tuple
    name: str = ""


class ManifoldModel(NamedTuple):
    """A chart with a metric given entrywise as callables over the chart jets."""

    name: str
    dim: int
    chart: tuple
    metric: tuple  # dim x dim nested tuple of callables; only i<=j is read
    domain_guard: Optional[Callable] = None  # a model callable, > 0 inside (guards_pass)


class MetricData(NamedTuple):
    """Metric and derivatives, plus the inverse and its partials."""

    value: np.ndarray  # (p, d, d)
    d1: np.ndarray  # (p, d, d, a) = partial_a g_ij
    d2: np.ndarray  # (p, d, d, a, b)
    inverse: np.ndarray  # (p, d, d)
    dinverse: np.ndarray  # (p, a, d, d) = partial_a g^ij


def metric_jets(model: ManifoldModel, points, order: int, vs=None) -> ArrayJet:
    """The metric's jets on a block of points ``(N, d)``, shape ``(N, d, d)``:
    the upper triangle evaluated, then mirrored. The domain check runs on
    the block (:func:`guards_pass`) and raises for the first failing point;
    there is no positive-definiteness gate. ``vs`` are the points' coordinate
    jets of :func:`jets.seed_block` at ``order``, where the caller has them."""
    if vs is None:
        vs = seed_block(points, order=order)
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]
    d = model.dim
    if dim != d:
        raise RejectedInputError(f"point has dim {dim}, model {model.name!r} has {d}")
    if model.domain_guard is not None:
        inside = guards_pass([model.domain_guard], pts)
        if not inside.all():
            raise OutOfDomainError(
                f"point {pts[np.argmin(inside)].tolist()} outside domain of model {model.name!r}"
            )
    rows, cols = np.triu_indices(d)
    upper = model_jets([model.metric[i][j] for i, j in zip(rows, cols)], vs)
    # entry (i, j) of the metric is entry (min(i, j), max(i, j)) of the triangle
    slot = np.zeros((d, d), dtype=int)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    value, gradient = np.take(upper.value, slot, axis=1), np.take(upper.gradient, slot, axis=1)
    hessian = None if upper.hessian is None else np.take(upper.hessian, slot, axis=1)
    return ArrayJet(value, gradient, hessian)


def metric_at(model: ManifoldModel, points, vs=None) -> MetricData:
    """The metric jets of :func:`metric_jets` at order 2 on a block of
    points, gated: the positive-definiteness check runs for every point and
    raises for the first failing one. A metric with an entry that is not
    finite fails it, and so does a NaN eigenvalue."""
    g = metric_jets(model, points, 2, vs)
    value, d1 = g.value, g.gradient
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
    dinverse = _dinverse(inverse, d1)
    return MetricData(value=value, d1=d1, d2=g.hessian, inverse=inverse, dinverse=dinverse)


def _dinverse(inverse: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """d(g^-1) = -g^-1 (dg) g^-1, one slab per coordinate direction:
    ``-np.einsum("pim,pmna,pnj->paij", inverse, d1, inverse)``, bit for bit
    and stride for stride (laid out as ``(p, i, a, j)`` in memory).

    With the first factor read from a C-ordered copy of the transposed
    inverse, einsum's loop runs faster over the same products, summed in
    the same order, into the same layout; the sums are negated in place."""
    first = np.ascontiguousarray(inverse.transpose(0, 2, 1))
    sums = np.einsum("pmi,pmna,pnj->paij", first, d1, inverse)
    return np.negative(sums, out=sums)


class ConnectionData(NamedTuple):
    metric: MetricData
    gamma: np.ndarray  # (p, k, i, j)
    dgamma: np.ndarray  # (p, k, i, j, a)


def christoffel_at(model: ManifoldModel, points, vs=None) -> ConnectionData:
    """Christoffel symbols and their partials on a block of points; ``vs``
    as for :func:`metric_jets` at order 2."""
    g = metric_at(model, points, vs)
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


class CurvatureData(NamedTuple):
    r13: np.ndarray  # (p, l, i, j, k)
    r4: np.ndarray  # (p, i, j, k, l)


def riemann_at(model: ManifoldModel, coords) -> CurvatureData:
    """Curvature on the block of the one point ``coords``."""
    points = np.asarray(coords, dtype=float)[None]
    return curvature_from_connection(christoffel_at(model, points))


def curvature_from_connection(conn: ConnectionData) -> CurvatureData:
    """Riemann tensor from a block's Christoffel symbols."""
    gamma, dgamma = conn.gamma, conn.dgamma
    # R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik
    #           + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    # terms 1 and 2 are views of dgamma, 4 is 3 with i and j swapped; in place
    r13 = np.einsum("pljki->plijk", dgamma) - np.einsum("plikj->plijk", dgamma)
    squares = np.einsum("plim,pmjk->plijk", gamma, gamma)
    r13 += squares
    r13 -= squares.transpose(0, 1, 3, 2, 4)
    del squares  # before r4 is made, which takes two d^4 arrays
    return CurvatureData(r13=r13, r4=_lower_first(conn.metric.value, r13))


def _lower_first(g: np.ndarray, r13: np.ndarray) -> np.ndarray:
    """``np.einsum("pml,pmijk->pijkl", g, r13)``, bit for bit, C-ordered.

    With ``ijk`` as one axis, contiguous in ``r13``, and ``g`` transposed
    into a C-ordered copy, einsum's inner loop runs along ``ijk`` and adds
    the same terms in the same order; the result, laid out as
    ``(p, l, ijk)``, is copied into C order."""
    n, d = g.shape[:2]
    lowered = np.einsum(
        "plm,pmx->pxl", np.ascontiguousarray(g.transpose(0, 2, 1)), r13.reshape(n, d, -1)
    )
    return np.ascontiguousarray(lowered.reshape(r13.shape))


def ricci_from_curvature(curv: CurvatureData) -> np.ndarray:
    """Ric_jk = R^a_{ajk}; convention Ric(Y, Z) = sum_a R(e_a, Y, Z, e_a).
    A block gives one table per point."""
    return np.einsum("...aajk->...jk", curv.r13)


def scalar_curvature(metric: MetricData, curv: CurvatureData) -> np.ndarray:
    """Coordinate-trace scalar curvature g^{jk} Ric_jk, one value per point
    of a block, with ``metric`` the block's metric."""
    return np.einsum("...jk,...jk->...", metric.inverse, ricci_from_curvature(curv))


def pair_r4(r4: np.ndarray, x, y, z, w):
    """R(X, Y, Z, W) from a curvature in the slots of ``CurvatureData.r4``,
    for chart component vectors of shape ``(..., d)`` broadcast against each
    other: one value per broadcast index, a scalar for four single vectors.
    A block's curvature goes in through ``PointCalculus.per_point``.

    The broadcast axes stay outside the sum over the four slots, so each
    value is summed in the same order as for single vectors: a table of
    frame 4-tuples equals its entries taken one tuple at a time, bit for
    bit. The products r4 * x * y are taken elementwise, as the five-operand
    einsum takes them, for runs of the leading broadcast axis of at most
    ``4 * _BLOCK_ENTRIES`` products (cut in the operands that have it)."""
    ops = [np.asarray(a, dtype=float) for a in (r4, x, y, z, w)]
    batches = [a.shape[: a.ndim - core] for a, core in zip(ops, (4, 1, 1, 1, 1))]
    batch = np.broadcast_shapes(*batches)
    lead = np.broadcast_shapes(*batches[:3], (1,) * len(batch))  # of r4 * x * y
    step = max(1, 4 * _BLOCK_ENTRIES // max(1, math.prod(lead[1:] + ops[0].shape[-4:])))
    if batch and step < batch[0]:
        cut = [len(b) == len(batch) and b[0] != 1 for b in batches]
        return np.concatenate([
            pair_r4(*(a[s : s + step] if c else a for a, c in zip(ops, cut)))
            for s in range(0, batch[0], step)
        ])
    head = ops[0] * ops[1][..., :, None, None, None] * ops[2][..., None, :, None, None]
    return np.einsum("...ijkl,...k,...l->...", head, ops[3], ops[4])
