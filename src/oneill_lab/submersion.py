"""Submersion models over contact metric total spaces.

This layer owns the vertical/horizontal split: declared spanning fields,
jet-valued Gram-Schmidt frames adapted to the split, the two fundamental
tensors of a submersion, their first covariant derivatives, and pointwise
structural checks (symmetry, alternation, skew-adjointness, anti-invariance,
the square identity for the horizontal part of phi).

Everything pointwise routes through ``PointCalculus``, which runs once on
a block of sample points; every record is a block, the point axis leading.
The layer's model expressions (the declared fields, the projection, the
base metric) are evaluated by ``riemannian.model_jets`` on the ``ArrayJet``
coordinate jets of the block, once per block; from there the layer runs on
array jets, with the point axis as a batch index only.
Gram-Schmidt turns the fields into an orthonormal frame that is itself a
second-order differentiable field, and one batched pass over all frame
pairs and chart components gives the value and gradient of the vertical-block
tensor on vertical frame pairs and of the horizontal-block tensor on
horizontal pairs, from which their first covariant derivatives follow.
Every contraction on that path (metric pairing, projection, covariant
derivative) is a term-by-term sum in a fixed index order, so the results
are reproducible bit for bit. Values-level work (tensor tables, residuals)
runs on plain numpy arrays.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple, Optional

import numpy as np

from .contact import (
    SasakianSpaceFormSpec,
    SpaceFormData,
    chart_model_from_document,
    space_form_from_document,
)
from .errors import DegenerateFrameError, RejectedInputError
from .expressions import block, compile_expression, compile_vector
from .jets import ArrayJet, concat, seed_block, stack, sum_terms
from .riemannian import (
    _PD_FLOOR,
    ManifoldModel,
    VectorField,
    metric_jets,
    model_jets,
    point_maxima,
    point_sums,
    running_sum,
)

_GS_PIVOT_SQ = 1e-20  # squared-norm pivot; rejects frame vectors shorter than 1e-10


class _SubmersionFields(NamedTuple):
    name: str
    total: SasakianSpaceFormSpec
    base: ManifoldModel
    projection: tuple
    vertical_fields: tuple
    horizontal_fields: tuple
    xi_case: str
    locus_guard: Optional[Callable] = None


class SubmersionModel(_SubmersionFields):
    """A submersion candidate between charts.

    ``projection`` holds one callable per target coordinate, fed total-chart
    jets.  ``vertical_fields`` must span the declared kernel distribution and
    ``horizontal_fields`` its complement; together they must span the total
    tangent space.  ``xi_case`` records which block carries the Reeb field,
    and the Reeb field itself must be declared as the last field of that
    block so the adapted frame keeps it in a fixed slot.

    ``locus_guard`` is a sampling-time restriction (stricter than the chart
    domain) used to keep random points away from degenerate boundaries, a
    model callable positive where a point may be drawn (``guards_pass``).

    Every way of building one checks the fields: the constructor,
    ``_replace`` and ``_make`` (through ``__new__``), and unpickling.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.xi_case not in ("vertical", "horizontal"):
            raise RejectedInputError(f"unknown xi_case {self.xi_case!r}")
        if not self.vertical_fields or not self.horizontal_fields:
            raise RejectedInputError("both distributions need at least one field")
        if len(self.vertical_fields) + len(self.horizontal_fields) != self.total.model.dim:
            raise RejectedInputError(
                "vertical and horizontal blocks together must span the total space"
            )
        if len(self.projection) != self.base.dim:
            raise RejectedInputError("projection arity must match the target dimension")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SubmersionCheck(NamedTuple):
    """Submersion diagnostics on a block of points, one value per point.

    ``kernel_residual``: how far the declared vertical fields are from the
    projection kernel.  ``length_residual``: deviation of the pushed-forward
    horizontal frame from orthonormality in the target metric.  ``base_pd``:
    whether the declared target metric is positive definite at the image.
    """

    kernel_residual: np.ndarray
    length_residual: np.ndarray
    base_pd: np.ndarray


def verify_riemannian_submersion(calc: PointCalculus) -> SubmersionCheck:
    """Kernel, length, and base-metric diagnostics on the block of ``calc``,
    on its adapted frames, from the projection's values and Jacobians
    ``jac[p, b, k] = d proj_b / d coord_k``. The projection and the base
    metric run once for the block."""
    sub, frame = calc.sub, calc.frame
    proj = model_jets(sub.projection, seed_block(calc.point, order=1))
    base_point, jac = proj.value, proj.gradient
    kernel = point_maxima(np.abs(jac @ np.swapaxes(frame.vert_values, 1, 2)))
    gb = metric_jets(sub.base, base_point, order=1).value
    push = jac @ np.swapaxes(frame.horiz_values, 1, 2)  # columns: the pushed frame
    gram = np.swapaxes(push, 1, 2) @ gb @ push
    return SubmersionCheck(
        kernel_residual=kernel,
        length_residual=point_maxima(np.abs(gram - np.eye(frame.n))),
        base_pd=np.linalg.eigvalsh(gb)[:, 0] > _PD_FLOOR,
    )


# The jet helpers below run on a block: every operand leads with the point
# axis, and the metric and connection jets gain unit axes after it.


def _pair(g: ArrayJet, x: ArrayJet, y: ArrayJet) -> ArrayJet:
    """Metric pairing of x and y over their last batch axis: the terms
    (g_ij x_i) y_j summed in row-major (i, j) order."""
    g = g[(slice(None),) + (None,) * (len(x.shape) - 2)]
    return sum_terms((g * x[..., :, None]) * y[..., None, :], axes=(-2, -1))


def _project(w: ArrayJet, block: ArrayJet, g: ArrayJet) -> ArrayJet:
    """Orthogonal projection of each field w[p, b] onto the span of the
    orthonormal fields block[p, q]: the terms g(w_b, e_q) e_q of ``_pair``,
    its products g_ij w_i made once, added in order of q, one at a time."""
    gw = g[(slice(None),) + (None,) * (len(w.shape) - 2)] * w[..., :, None]
    acc = None
    for q in range(block.shape[1]):
        e = block[:, q, None]
        term = sum_terms(gw * e[..., None, :], axes=(-2, -1))[..., None] * e
        acc = term if acc is None else acc + term
    return acc


def _cov(x: ArrayJet, y: ArrayJet, gamma: ArrayJet) -> ArrayJet:
    """Components of the covariant derivative of each field y[p, b] along
    x[p, b]: the terms x_i d_i y_k, then Gamma^k_ij x_i y_j in row-major
    (i, j) order, added one term at a time, which keeps a block's arrays
    to the size of the result. ``y`` must be order 2; the result is order
    1."""
    d, dy = x.shape[-1], y.partials()
    acc = x[..., 0, None] * dy[..., 0]
    for i in range(1, d):
        acc = acc + x[..., i, None] * dy[..., i]
    gamma = gamma[:, None]
    for i in range(d):
        xy = x[..., i, None] * y
        for j in range(d):
            acc = acc + gamma[..., i, j] * xy[..., j, None]
    return acc


class AdaptedFrame(NamedTuple):
    """Orthonormal frames as second-order jet fields, vertical block first,
    on a block of points, the point axis leading."""

    jets: ArrayJet  # (p, r + n, dim): row a holds the components of frame field a
    r: int
    vert_values: np.ndarray  # (p, r, dim)
    horiz_values: np.ndarray  # (p, n, dim)

    @property
    def n(self) -> int:
        return self.jets.shape[-2] - self.r


def adapted_frame_at(sub: SubmersionModel, state: SpaceFormData) -> AdaptedFrame:
    """Gram-Schmidt over the declared fields, vertical block first, on the
    block of points of ``state``, the total space's block data.

    The arithmetic runs on coordinate jets, so the resulting frame is a
    differentiable field in a neighborhood of each point; later fields are
    orthogonalized against everything before them, which keeps a Reeb field
    declared last in its block fixed whenever the earlier fields are already
    orthogonal to it. The metric jets are those of the state's connection.
    A point whose fields are dependent raises, the first in sample order,
    once the block's frames are done.
    """
    metric = state.conn.metric
    g = ArrayJet(metric.value, metric.d1, metric.d2)
    fields = sub.vertical_fields + sub.horizontal_fields
    # rest: the fields not yet normalized, orthogonalized against the
    # units so far, all of them at once
    rest = model_jets([f.components for f in fields], seed_block(state.points))
    dependent = np.zeros(len(state.points), dtype=bool)
    units = []
    for k in range(len(fields)):
        v, rest = rest[:, 0], rest[:, 1:]
        nsq = _pair(g, v, v)
        # a dependent point goes on with a unit norm, so that the others
        # keep their frames
        short = nsq.value < _GS_PIVOT_SQ
        dependent |= short
        if short.any():
            nsq = ArrayJet(np.where(short, 1.0, nsq.value), nsq.gradient, nsq.hessian)
        e = (1.0 / nsq.sqrt())[:, None] * v
        units.append(e)
        if rest.shape[1]:
            rest = rest - _pair(g, rest, e[:, None])[..., None] * e[:, None]
    if dependent.any():
        raise DegenerateFrameError(
            f"declared fields of {sub.name!r} are dependent at "
            f"{state.points[np.argmax(dependent)].tolist()}"
        )
    jets = stack(units, axis=1)
    r = len(sub.vertical_fields)
    return AdaptedFrame(
        jets=jets,
        r=r,
        vert_values=np.array(jets.value[:, :r]),
        horiz_values=np.array(jets.value[:, r:]),
    )


def _exchange_jets(frame: AdaptedFrame, g: ArrayJet, gamma: ArrayJet):
    """Order-1 jets of the vertical-block tensor T on all vertical frame
    pairs, shaped (p, r, r, dim), and of the horizontal-block tensor A on
    all horizontal frame pairs, shaped (p, n, n, dim).

    With V and H the projections onto the two blocks, T(U_k, U_l) is
    H(cov(V U_k, V U_l)) + V(cov(V U_k, H U_l)) and A(X_i, X_j) is
    V(cov(H X_i, H X_j)) + H(cov(H X_i, V X_j)); both are
    H(cov(x, V f)) + V(cov(x, f - V f)) with x the projection of the first
    slot onto its own block. Each slot is projected once, and the covariant
    derivatives of all pairs run as one batch.
    """
    f, r = frame.jets, frame.r
    p, m = f.shape[:2]
    vert = _project(f, f[:, :r], g)
    # x is differentiated once, so its Hessians are never read
    horiz = _project(f[:, r:].first_order(), f[:, r:], g)
    x = concat([vert[:, :r].first_order(), horiz], axis=1)
    slots = [(a, b) for a in range(r) for b in range(r)]
    slots += [(a, b) for a in range(r, m) for b in range(r, m)]
    first = [a for a, _ in slots]
    second = [b for _, b in slots]
    xs = x[:, first]
    w = _cov(
        concat([xs, xs], axis=1),
        concat([vert[:, second], (f - vert)[:, second]], axis=1),
        gamma,
    )
    half = len(slots)
    fields = _project(w[:, :half], f[:, r:], g) + _project(w[:, half:], f[:, :r], g)
    n = m - r
    return (
        fields[:, : r * r].reshape((p, r, r, m)),
        fields[:, r * r :].reshape((p, n, n, m)),
    )


class PointCalculus:
    """Per-point state shared by the tensor and curvature layers, on a block
    of points, the point axis leading.

    Holds the total space's data on the block, ``state``, of which ``point``
    and ``conn`` are the points and the connection; the adapted frames as
    order-2 jet fields, the frame fields' covariant derivatives along each
    other, the fundamental tensors on frame pairs, and their exchange jets,
    from which their covariant derivatives come. Every vector argument of
    the methods leads with the point axis and has as many axes as the others.
    """

    def __init__(self, sub: SubmersionModel, state: SpaceFormData):
        self.sub = sub
        self.state = state
        self.point = state.points
        self.conn = state.conn
        self.frame = adapted_frame_at(sub, state)
        self.r = self.frame.r
        self.n = self.frame.n
        values = self.frame.jets.value
        # row a pairs a vector with frame field a: its frame coefficients
        self._decomp = np.array(values, dtype=float) @ self.conn.metric.value
        # [p, i, j]: cov of E_j along E_i, read by the tensor tables and by
        # both tensors' derivatives
        self._nabla_frame = self.cov_point(values[:, :, None], self.frame.jets[:, None])
        self._tensor_tables = self._frame_tables()
        m, conn = self.conn.metric, self.conn
        # jets of T on vertical frame pairs and of A on horizontal frame
        # pairs, shared by every derivative evaluation
        self._exchange_fields = _exchange_jets(
            self.frame, ArrayJet(m.value, m.d1, m.d2), ArrayJet(conn.gamma, conn.dgamma)
        )

    def per_point(self, a, ndim: int) -> np.ndarray:
        """A block's array, point axis first, with unit axes after that axis
        up to ``ndim`` axes, so that it broadcasts against operands of
        ``ndim`` axes that lead with the point axis."""
        return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])

    # ---- pairings and projections ----
    #
    # Vectors broadcast against each other. Every product is a stack of the
    # matrix-vector or vector-vector products of one vector (matmul with a
    # length-1 core axis: gemv or dot, never gemm), so a batch equals its
    # vectors taken one at a time, and a block its points, bit for bit.

    def pairings(self, xs, ys) -> np.ndarray:
        """g(x, y) as (x @ g) @ y, one value per broadcast index."""
        xs = np.asarray(xs, dtype=float)[..., None, :]
        ys = np.asarray(ys, dtype=float)[..., :, None]
        return ((xs @ self.per_point(self.conn.metric.value, xs.ndim)) @ ys)[..., 0, 0]

    def _project(self, ws, rows: np.ndarray) -> np.ndarray:
        # coefficients rows @ (g @ w), then coefficients @ rows
        gw = np.asarray(ws, dtype=float)[..., None]
        gw = self.per_point(self.conn.metric.value, gw.ndim) @ gw
        rows = self.per_point(rows, gw.ndim)
        return (np.swapaxes(rows @ gw, -1, -2) @ rows)[..., 0, :]

    def v_project_values(self, ws) -> np.ndarray:
        return self._project(ws, self.frame.vert_values)

    def h_project_values(self, ws) -> np.ndarray:
        return self._project(ws, self.frame.horiz_values)

    def phi_of(self, ws) -> np.ndarray:
        """phi w, one matrix-vector product per vector."""
        ws = np.asarray(ws, dtype=float)[..., None]
        return (self.per_point(self.state.contact.phi, ws.ndim) @ ws)[..., 0]

    def eta_of(self, ws) -> np.ndarray:
        """eta(w), one dot product per vector."""
        ws = np.asarray(ws, dtype=float)[..., None]
        eta = self.per_point(self.state.contact.eta[..., None, :], ws.ndim)
        return (eta @ ws)[..., 0, 0]

    # ---- covariant derivatives ----

    def cov_point(self, x, y: ArrayJet) -> np.ndarray:
        """Value of the covariant derivative of the jet field ``y`` (value
        (..., dim), gradient (..., dim, dim)) along the vectors ``x``
        (..., dim), broadcast against each other."""
        xv = np.asarray(x, dtype=float)
        gamma = self.per_point(self.conn.gamma, xv.ndim + 2)
        return (np.asarray(y.gradient) @ xv[..., None])[..., 0] + np.einsum(
            "...kij,...i,...j->...k", gamma, xv, np.asarray(y.value)
        )

    # ---- fundamental tensors ----

    def _frame_tables(self):
        """Values of both fundamental tensors on all frame pairs of the block.

        Both tensors are pointwise bilinear, so evaluation on arbitrary
        vectors reduces to the covariant derivative of each frame pair plus
        projections; the exchange jets are only needed where first
        derivatives matter."""
        r, (p, d), nab = self.r, self.point.shape, self._nabla_frame
        t_tab, a_tab = np.zeros((2, p, d, d, d))
        t_tab[:, :r, :r] = self.h_project_values(nab[:, :r, :r])
        t_tab[:, :r, r:] = self.v_project_values(nab[:, :r, r:])
        a_tab[:, r:, r:] = self.v_project_values(nab[:, r:, r:])
        a_tab[:, r:, :r] = self.h_project_values(nab[:, r:, :r])
        return t_tab, a_tab

    def frame_coeffs(self, ws) -> np.ndarray:
        """Frame coefficients of vectors (..., dim), as ``t_of``/``a_of`` take them."""
        ws = np.asarray(ws, dtype=float)[..., None]
        return (self.per_point(self._decomp, ws.ndim) @ ws)[..., 0]

    def _bilinear(self, table, ce, cf) -> np.ndarray:
        # the broadcast axes stay outside the sum over frame pairs
        table = self.per_point(table, ce.ndim + 2)
        return np.einsum("...i,...j,...ijk->...k", ce, cf, table)

    def t_of(self, ce, cf) -> np.ndarray:
        """T on vectors given by their ``frame_coeffs``."""
        return self._bilinear(self._tensor_tables[0], ce, cf)

    def a_of(self, ce, cf) -> np.ndarray:
        """A on vectors given by their ``frame_coeffs``."""
        return self._bilinear(self._tensor_tables[1], ce, cf)

    def t_point(self, e, f) -> np.ndarray:
        """T(e, f) for vectors of shape (..., dim), broadcast against each other."""
        return self.t_of(self.frame_coeffs(e), self.frame_coeffs(f))

    def a_point(self, e, f) -> np.ndarray:
        """A(e, f), same conventions as ``t_point``."""
        return self.a_of(self.frame_coeffs(e), self.frame_coeffs(f))

    def _nabla(self, jets, tensor, e, k, l) -> np.ndarray:
        # d/dE_e of the tensor's ``jets`` on (E_k, E_l) minus the two slot
        # corrections, whose derivatives are read from the frame table
        values, nab = self.frame.jets.value, self._nabla_frame
        main = self.cov_point(values[:, e], jets)
        return main - tensor(nab[:, e, k], values[:, l]) - tensor(values[:, k], nab[:, e, l])

    def nabla_t_frame(self, e, k, l) -> np.ndarray:
        """(nabla_{E_e} T)(U_k, U_l) for the frame slot ``e`` (vertical
        block first) and vertical frame indices ``k``, ``l``: integers or
        integer arrays, broadcast against each other after the point axis."""
        return self._nabla(self._exchange_fields[0][:, k, l], self.t_point, e, k, l)

    def nabla_a_frame(self, e, i, j) -> np.ndarray:
        """(nabla_{E_e} A)(X_i, X_j) for horizontal frame indices ``i``,
        ``j``; same conventions."""
        r, a_fields = self.r, self._exchange_fields[1]
        return self._nabla(a_fields[:, i, j], self.a_point, e, r + i, r + j)

    def delta_n(self) -> np.ndarray:
        """Divergence-type trace: sum over the horizontal frame of the
        pairing of (nabla_X T)(U, U) with X, summed over the vertical frame;
        one value per point of a block."""
        xv = self.frame.horiz_values[..., :, None, :]
        xs, ks = self.r + np.arange(self.n)[:, None], np.arange(self.r)[None, :]
        terms = self.pairings(self.nabla_t_frame(xs, ks, ks), xv)
        return running_sum(np.moveaxis(terms.reshape(terms.shape[:-2] + (-1,)), -1, 0))


class OneillData(NamedTuple):
    """Frame components of the fundamental tensors and derived norms on a
    block of points, the point axis ``p`` leading."""

    t_coeff: np.ndarray  # (p, r, r, n): component of T(U_a, U_b) along X_s
    a_coeff: np.ndarray  # (p, n, n, r): component of A(X_s, X_t) along U_a
    t_frame: np.ndarray  # (p, d, d, d): chart components of T(E_a, E_b), vertical first
    a_frame: np.ndarray  # (p, d, d, d): chart components of A(E_a, E_b)
    sum_t_sq: np.ndarray  # (p,), as the norms below
    sum_a_sq: np.ndarray
    norm_tv_sq: np.ndarray  # mixed-slot norm of the vertical-block tensor
    norm_ah_sq: np.ndarray  # mixed-slot norm of the horizontal-block tensor
    n_vec: np.ndarray  # trace of the vertical-block tensor over the fiber
    n_norm_sq: np.ndarray
    phi_x: np.ndarray  # (p, n, d): phi X_s
    b_part: np.ndarray  # (p, n, d): the vertical part of phi_x
    phi_b: np.ndarray  # (p, n, d): phi of b_part
    trace_phi_b: np.ndarray


def tensors_from_calculus(calc: PointCalculus) -> OneillData:
    """The tensor data of the block of ``calc``: T and A once each, on all
    frame pairs; the other fields, and later readers, take their blocks."""
    r = calc.r
    uvals, xvals = calc.frame.vert_values, calc.frame.horiz_values
    frame = calc.frame.jets.value
    t_frame = calc.t_point(frame[:, :, None], frame[:, None])
    a_frame = calc.a_point(frame[:, :, None], frame[:, None])
    t_uu, t_ux = t_frame[:, :r, :r], t_frame[:, :r, r:]
    a_xx, a_xu = a_frame[:, r:, r:], a_frame[:, r:, :r]
    t_coeff = calc.pairings(t_uu[:, :, :, None], xvals[:, None, None])
    a_coeff = calc.pairings(a_xx[:, :, :, None], uvals[:, None, None])
    ks = np.arange(r)
    n_vec = running_sum(np.moveaxis(t_uu[:, ks, ks], 1, 0))
    phi_x = calc.phi_of(xvals)
    b_part = calc.v_project_values(phi_x)
    phi_b = calc.phi_of(b_part)
    return OneillData(
        t_coeff=t_coeff,
        a_coeff=a_coeff,
        t_frame=t_frame,
        a_frame=a_frame,
        sum_t_sq=np.sum(t_coeff**2, axis=(1, 2, 3)),
        sum_a_sq=np.sum(a_coeff**2, axis=(1, 2, 3)),
        norm_tv_sq=point_sums(calc.pairings(t_ux, t_ux)),
        norm_ah_sq=point_sums(calc.pairings(a_xu, a_xu)),
        n_vec=n_vec,
        n_norm_sq=calc.pairings(n_vec, n_vec),
        phi_x=phi_x,
        b_part=b_part,
        phi_b=phi_b,
        trace_phi_b=point_sums(calc.pairings(phi_b, xvals)),
    )


def verify_structure_lemmas(calc: PointCalculus, data: OneillData) -> dict:
    """Residuals of the structural identities of the split on the block of
    ``calc`` and the tensor data built on it, one value per point.

    ``t_symmetry``: the vertical-block tensor is symmetric on fiber pairs.
    ``a_alternation``: the horizontal-block tensor alternates on horizontal
    pairs.  ``skew_t``/``skew_a``: both tensors are skew-adjoint as operators.
    ``anti_invariance``: phi maps the vertical space into the horizontal one.
    ``c_square``: the horizontal part of phi squares to minus the identity up
    to the vertical part of phi and, with the Reeb field horizontal, the Reeb
    correction.
    """
    uvals, xvals = calc.frame.vert_values, calc.frame.horiz_values
    res = {
        "t_symmetry": point_maxima(np.abs(data.t_coeff - np.swapaxes(data.t_coeff, 1, 2))),
        "a_alternation": point_maxima(
            np.abs(data.a_coeff + np.swapaxes(data.a_coeff, 1, 2))
        ),
    }
    frame = calc.frame.jets.value  # vertical block first
    for key, img in (("skew_t", data.t_frame), ("skew_a", data.a_frame)):
        # img[p, e, f] is P(e, f); skew[p, e, f, g]: g(P(e, f), g) + g(f, P(e, g))
        skew = calc.pairings(img[:, :, :, None], frame[:, None, None]) + calc.pairings(
            frame[:, None, :, None], img[:, :, None, :]
        )
        res[key] = point_maxima(np.abs(skew))
    phi_u = calc.phi_of(uvals)
    res["anti_invariance"] = point_maxima(
        np.abs(calc.pairings(phi_u[:, :, None], uvals[:, None]))
    )
    c_part = calc.h_project_values(data.phi_x)
    resid = calc.h_project_values(calc.phi_of(c_part)) + xvals
    if calc.sub.xi_case == "horizontal":
        resid = resid - calc.eta_of(xvals)[..., None] * calc.state.contact.xi[:, None]
    resid = resid + data.phi_b
    res["c_square"] = point_maxima(np.abs(resid))
    return res


def load_custom_model(contents: bytes) -> SubmersionModel:
    """Build a submersion model from the contents of a model file, one
    JSON object.

    Schema ``oneill-lab-model/1``: chart and metric for the total space, a
    contact block (phi matrix, Reeb components, eta components, the constant
    phi-sectional curvature), the projection expressions, the target chart
    and metric, the two field blocks, and the Reeb case.  All entries are
    expression strings over the respective chart variables.  Optional
    ``domain`` / ``base_domain`` expressions restrict the charts to where
    they evaluate positive (total space: ``space_form_from_document``).
    """
    data = json.loads(contents)
    if not isinstance(data, dict):
        raise RejectedInputError("a model file must hold one JSON object")
    if data.get("schema") != "oneill-lab-model/1":
        raise RejectedInputError(
            f"unsupported model schema {data.get('schema')!r}; "
            "expected 'oneill-lab-model/1'"
        )
    for key in (
        "name",
        "chart",
        "metric",
        "projection",
        "base_chart",
        "base_metric",
        "vertical",
        "horizontal",
        "xi_case",
        "contact",
    ):
        if key not in data:
            raise RejectedInputError(f"model file is missing key {key!r}")

    memo = {}  # each distinct expression of the file compiled once per chart
    total = space_form_from_document(data, memo)
    chart, dim = total.model.chart, total.model.dim
    base = chart_model_from_document(data, "base_", str(data["name"]) + "-base", memo)
    projection = compile_vector(data["projection"], chart, "projection", memo)

    def field_block(key, prefix):
        return tuple(
            VectorField(
                components=compile_vector(row, chart, f"{key} field {idx}", memo, dim),
                name=f"{prefix}{idx + 1}",
            )
            for idx, row in enumerate(block(data[key], key))
        )

    vertical = field_block("vertical", "V")
    horizontal = field_block("horizontal", "H")
    locus = compile_expression(str(data["locus"]), chart) if "locus" in data else None
    return SubmersionModel(
        name=str(data["name"]),
        total=total,
        base=base,
        projection=projection,
        vertical_fields=vertical,
        horizontal_fields=horizontal,
        xi_case=str(data["xi_case"]),
        locus_guard=locus,
    )
