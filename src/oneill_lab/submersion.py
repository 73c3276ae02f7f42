"""Submersion models over contact metric total spaces.

This layer owns the vertical/horizontal split: declared spanning fields,
jet-valued Gram-Schmidt frames adapted to the split, the two fundamental
tensors of a submersion, their first covariant derivatives, and pointwise
structural checks (symmetry, alternation, skew-adjointness, anti-invariance,
the square identity for the horizontal part of phi).

Everything pointwise routes through ``PointCalculus``. The layer's model
expressions (the declared fields, the projection, the base metric) are
evaluated by ``riemannian.model_jets`` on the ``ArrayJet`` coordinate jets
of a block of the one point; from there the layer runs on array jets.
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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .contact import (
    SasakianSpaceFormSpec,
    SpaceFormData,
    chart_model_from_document,
    space_form_from_document,
)
from .errors import DegenerateFrameError, RejectedInputError
from .expressions import block, compile_guard, compile_vector
from .jets import ArrayJet, concat, seed_block, stack, sum_terms
from .riemannian import (
    ManifoldModel,
    VectorField,
    max_residual,
    metric_jets,
    model_jets,
    running_sum,
)

_GS_PIVOT_SQ = 1e-20  # squared-norm pivot; rejects frame vectors shorter than 1e-10


@dataclass(frozen=True)
class SubmersionModel:
    """A submersion candidate between charts.

    ``projection`` holds one callable per target coordinate, fed total-chart
    jets.  ``vertical_fields`` must span the declared kernel distribution and
    ``horizontal_fields`` its complement; together they must span the total
    tangent space.  ``xi_case`` records which block carries the Reeb field,
    and the Reeb field itself must be declared as the last field of that
    block so the adapted frame keeps it in a fixed slot.

    ``locus_guard`` is a sampling-time restriction (stricter than the chart
    domain) used to keep random points away from degenerate boundaries.
    """

    name: str
    total: SasakianSpaceFormSpec
    base: ManifoldModel
    projection: tuple
    vertical_fields: tuple
    horizontal_fields: tuple
    xi_case: str
    locus_guard: Optional[Callable[[np.ndarray], bool]] = None

    def __post_init__(self):
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


@dataclass(frozen=True)
class SubmersionCheck:
    """Pointwise submersion diagnostics.

    ``kernel_residual``: how far the declared vertical fields are from the
    projection kernel.  ``length_residual``: deviation of the pushed-forward
    horizontal frame from orthonormality in the target metric.  ``base_pd``:
    whether the declared target metric is positive definite at the image.
    """

    kernel_residual: float
    length_residual: float
    base_pd: bool


def verify_riemannian_submersion(calc: PointCalculus) -> SubmersionCheck:
    """Kernel, length, and base-metric diagnostics at the point of
    ``calc``, on its adapted frame, from the projection's value and its
    Jacobian ``jac[b, k] = d proj_b / d coord_k``."""
    sub, frame = calc.sub, calc.frame
    proj = model_jets(sub.projection, seed_block(calc.point[None], order=1))[0]
    base_point, jac = proj.value, proj.gradient
    kernel_residual = float(np.max(np.abs(jac @ frame.vert_values.T)))
    gb = metric_jets(sub.base, base_point[None], order=1).value[0]
    push = jac @ frame.horiz_values.T  # columns are the pushed frame vectors
    gram = push.T @ gb @ push
    length_residual = float(np.max(np.abs(gram - np.eye(frame.n))))
    base_pd = bool(np.linalg.eigvalsh(gb)[0] > 1e-12)
    return SubmersionCheck(
        kernel_residual=kernel_residual,
        length_residual=length_residual,
        base_pd=base_pd,
    )


def _pair(g: ArrayJet, x: ArrayJet, y: ArrayJet) -> ArrayJet:
    """Metric pairing of x and y over their last batch axis: the terms
    (g_ij x_i) y_j summed in row-major (i, j) order."""
    return sum_terms((g * x[..., :, None]) * y[..., None, :], axes=(-2, -1))


def _project(w: ArrayJet, block: ArrayJet, g: ArrayJet) -> ArrayJet:
    """Orthogonal projection of each field w[b] onto the span of the
    orthonormal fields block[q]: the terms g(w_b, e_q) e_q summed over q."""
    coeff = _pair(g, w[:, None], block[None, :])
    return sum_terms(coeff[:, :, None] * block[None], axes=(1,))


def _cov(x: ArrayJet, y: ArrayJet, gamma: ArrayJet) -> ArrayJet:
    """Components of the covariant derivative of each field y[b] along x[b]:
    the terms x_i d_i y_k, then Gamma^k_ij x_i y_j in row-major (i, j)
    order. ``y`` must be order 2; the result is order 1."""
    acc = sum_terms(x[:, None, :] * y.partials(), axes=(-1,))
    terms = gamma * (x[:, :, None] * y[:, None, :])[:, None]
    return sum_terms(terms, axes=(-2, -1), start=acc)


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame as second-order jet fields, vertical block first."""

    jets: ArrayJet  # (r + n, dim): row a holds the components of frame field a
    r: int
    vert_values: np.ndarray  # (r, dim)
    horiz_values: np.ndarray  # (n, dim)

    @property
    def n(self) -> int:
        return self.jets.shape[0] - self.r


def adapted_frame_at(sub: SubmersionModel, state: SpaceFormData) -> AdaptedFrame:
    """Gram-Schmidt over the declared fields, vertical block first, at the
    point of ``state``, a point's slice of the total space's block data.

    The arithmetic runs on coordinate jets, so the resulting frame is a
    differentiable field in a neighborhood of the point; later fields are
    orthogonalized against everything before them, which keeps a Reeb field
    declared last in its block fixed whenever the earlier fields are already
    orthogonal to it. The metric jets are those of the state's connection.
    """
    metric = state.conn.metric
    g = ArrayJet(metric.value, metric.d1, metric.d2)
    fields = sub.vertical_fields + sub.horizontal_fields
    raw = model_jets([f.components for f in fields], seed_block(state.points[None]))[0]
    units = []
    for k in range(len(fields)):
        v = raw[k]
        for e in units:
            v = v - _pair(g, v, e) * e
        nsq = _pair(g, v, v)
        if nsq.value < _GS_PIVOT_SQ:
            raise DegenerateFrameError(
                f"declared fields of {sub.name!r} are dependent at "
                f"{state.points.tolist()}"
            )
        units.append((1.0 / nsq.sqrt()) * v)
    jets = stack(units)
    r = len(sub.vertical_fields)
    return AdaptedFrame(
        jets=jets,
        r=r,
        vert_values=np.array(jets.value[:r]),
        horiz_values=np.array(jets.value[r:]),
    )


def _exchange_jets(frame: AdaptedFrame, g: ArrayJet, gamma: ArrayJet):
    """Order-1 jets of the vertical-block tensor T on all vertical frame
    pairs, shaped (r, r, dim), and of the horizontal-block tensor A on all
    horizontal frame pairs, shaped (n, n, dim).

    With V and H the projections onto the two blocks, T(U_k, U_l) is
    H(cov(V U_k, V U_l)) + V(cov(V U_k, H U_l)) and A(X_i, X_j) is
    V(cov(H X_i, H X_j)) + H(cov(H X_i, V X_j)); both are
    H(cov(x, V f)) + V(cov(x, f - V f)) with x the projection of the first
    slot onto its own block. Each slot is projected once, and the covariant
    derivatives of all pairs run as one batch.
    """
    f, r = frame.jets, frame.r
    m = f.shape[0]
    vert = _project(f, f[:r], g)
    horiz = _project(f[r:], f[r:], g)
    x = concat([vert[:r], horiz]).first_order()
    slots = [(p, q) for p in range(r) for q in range(r)]
    slots += [(p, q) for p in range(r, m) for q in range(r, m)]
    first = [p for p, _ in slots]
    second = [q for _, q in slots]
    xs = x[first]
    w = _cov(concat([xs, xs]), concat([vert[second], (f - vert)[second]]), gamma)
    half = len(slots)
    fields = _project(w[:half], f[r:], g) + _project(w[half:], f[:r], g)
    n = m - r
    return fields[: r * r].reshape((r, r, m)), fields[r * r :].reshape((n, n, m))


class PointCalculus:
    """Per-point state shared by the tensor and curvature layers.

    Holds the connection and curvature of the total space (both the jet
    curvature and the space-form closed form), the contact data, the adapted
    frame as order-2 jet fields, and the exchange jets of the fundamental
    tensors from which their covariant derivatives come.

    ``state`` is the point's slice of the total space's data, evaluated on
    the block of sample points the point belongs to; ``state.points`` is
    the point.
    """

    def __init__(self, sub: SubmersionModel, state: SpaceFormData):
        self.sub = sub
        self.point = state.points
        self.conn = state.conn
        self.curvature = state.curvature
        # closed form of a space form with the total space's phi-sectional
        # curvature, from the metric, phi and eta; slots of ``curvature.r4``
        self.closed_curvature = state.closed
        self.frame = adapted_frame_at(sub, state)
        self.r = self.frame.r
        self.n = self.frame.n
        self.phi_values = state.contact.phi
        self.eta_values = state.contact.eta
        self.xi_values = state.contact.xi

    # ---- pairings and projections ----
    #
    # Vectors have shape (..., dim) and broadcast against each other. Every
    # product is a stack of the matrix-vector or vector-vector products of
    # one vector (matmul with a length-1 core axis: gemv or dot, never
    # gemm), so a batch equals its vectors taken one at a time, bit for bit.

    def pairings(self, xs, ys) -> np.ndarray:
        """g(x, y) as (x @ g) @ y, one value per broadcast index."""
        xs = np.asarray(xs, dtype=float)[..., None, :]
        ys = np.asarray(ys, dtype=float)[..., :, None]
        return ((xs @ self.conn.metric.value) @ ys)[..., 0, 0]

    def _project(self, ws, rows: np.ndarray) -> np.ndarray:
        # coefficients rows @ (g @ w), then coefficients @ rows
        gw = self.conn.metric.value @ np.asarray(ws, dtype=float)[..., None]
        return (np.swapaxes(rows @ gw, -1, -2) @ rows)[..., 0, :]

    def v_project_values(self, ws) -> np.ndarray:
        return self._project(ws, self.frame.vert_values)

    def h_project_values(self, ws) -> np.ndarray:
        return self._project(ws, self.frame.horiz_values)

    def phi_of(self, ws) -> np.ndarray:
        """phi w, one matrix-vector product per vector."""
        return (self.phi_values @ np.asarray(ws, dtype=float)[..., None])[..., 0]

    def eta_of(self, ws) -> np.ndarray:
        """eta(w), one dot product per vector."""
        return (self.eta_values @ np.asarray(ws, dtype=float)[..., None])[..., 0]

    # ---- covariant derivatives ----

    def cov_point(self, x, y: ArrayJet) -> np.ndarray:
        """Value of the covariant derivative of the jet field ``y`` (value
        (..., dim), gradient (..., dim, dim)) along the vectors ``x``
        (..., dim), broadcast against each other."""
        xv = np.asarray(x, dtype=float)
        return (np.asarray(y.gradient) @ xv[..., None])[..., 0] + np.einsum(
            "kij,...i,...j->...k", self.conn.gamma, xv, np.asarray(y.value)
        )

    # ---- fundamental tensors ----

    @cached_property
    def _tensor_tables(self):
        """Values of both fundamental tensors on all frame pairs.

        Both tensors are pointwise bilinear, so evaluation on arbitrary
        vectors reduces to one covariant derivative per frame pair plus
        projections; the jets of ``_exchange_fields`` are only needed where
        first derivatives matter."""
        r, d = self.r, len(self.point)
        jets = self.frame.jets
        nab = self.cov_point(jets.value[:, None], jets)  # [i, j]: cov of E_j along E_i
        t_tab = np.zeros((d, d, d))
        a_tab = np.zeros((d, d, d))
        t_tab[:r, :r] = self.h_project_values(nab[:r, :r])
        t_tab[:r, r:] = self.v_project_values(nab[:r, r:])
        a_tab[r:, r:] = self.v_project_values(nab[r:, r:])
        a_tab[r:, :r] = self.h_project_values(nab[r:, :r])
        return t_tab, a_tab

    @cached_property
    def _decomp(self) -> np.ndarray:
        # row a pairs a vector with frame field a: its frame coefficients
        return np.array(self.frame.jets.value, dtype=float) @ self.conn.metric.value

    def _frame_coeffs(self, ws) -> np.ndarray:
        return (self._decomp @ np.asarray(ws, dtype=float)[..., None])[..., 0]

    def _bilinear(self, table, es, fs) -> np.ndarray:
        # the broadcast axes stay outside the sum over frame pairs
        return np.einsum(
            "...i,...j,ijk->...k", self._frame_coeffs(es), self._frame_coeffs(fs), table
        )

    def t_point(self, e, f) -> np.ndarray:
        """T(e, f) for vectors of shape (..., dim), broadcast against each other."""
        return self._bilinear(self._tensor_tables[0], e, f)

    def a_point(self, e, f) -> np.ndarray:
        """A(e, f), same conventions as ``t_point``."""
        return self._bilinear(self._tensor_tables[1], e, f)

    @cached_property
    def _exchange_fields(self):
        """Jets of T on vertical frame pairs and of A on horizontal frame
        pairs, computed once and shared by every derivative evaluation."""
        m, conn = self.conn.metric, self.conn
        return _exchange_jets(
            self.frame, ArrayJet(m.value, m.d1, m.d2), ArrayJet(conn.gamma, conn.dgamma)
        )

    def nabla_t_frame(self, e_values, k, l) -> np.ndarray:
        """(nabla_e T)(U_k, U_l): d/de of T(U_k, U_l) minus the two slot
        corrections; only the value of ``e`` matters. The vectors ``e``
        (..., dim) and the frame indices ``k``, ``l`` (integers or integer
        arrays) broadcast against each other."""
        t_fields, _ = self._exchange_fields
        jets, uv = self.frame.jets, self.frame.vert_values
        main = self.cov_point(e_values, t_fields[k, l])
        c1 = self.t_point(self.cov_point(e_values, jets[k]), uv[l])
        c2 = self.t_point(uv[k], self.cov_point(e_values, jets[l]))
        return main - c1 - c2

    def nabla_a_frame(self, e_values, i, j) -> np.ndarray:
        """(nabla_e A)(X_i, X_j), same conventions."""
        _, a_fields = self._exchange_fields
        jets, xv, r = self.frame.jets, self.frame.horiz_values, self.r
        main = self.cov_point(e_values, a_fields[i, j])
        c1 = self.a_point(self.cov_point(e_values, jets[r + i]), xv[j])
        c2 = self.a_point(xv[i], self.cov_point(e_values, jets[r + j]))
        return main - c1 - c2

    def delta_n(self) -> float:
        """Divergence-type trace: sum over the horizontal frame of the
        pairing of (nabla_X T)(U, U) with X, summed over the vertical frame."""
        xv = self.frame.horiz_values[:, None]
        ks = np.arange(self.r)
        terms = self.pairings(self.nabla_t_frame(xv, ks, ks), xv)
        return float(running_sum(terms.ravel()))


@dataclass(frozen=True)
class OneillData:
    """Frame components of the fundamental tensors and derived norms."""

    t_coeff: np.ndarray  # (r, r, n): component of T(U_a, U_b) along X_s
    a_coeff: np.ndarray  # (n, n, r): component of A(X_s, X_t) along U_a
    t_uu: np.ndarray  # (r, r, dim): chart components of T(U_a, U_b)
    a_xx: np.ndarray  # (n, n, dim): chart components of A(X_s, X_t)
    sum_t_sq: float
    sum_a_sq: float
    norm_tv_sq: float  # mixed-slot norm of the vertical-block tensor
    norm_ah_sq: float  # mixed-slot norm of the horizontal-block tensor
    n_vec: np.ndarray  # trace of the vertical-block tensor over the fiber
    h_vec: np.ndarray  # mean curvature vector of the fibers (n_vec / r)
    n_norm_sq: float
    trace_phi_b: float


def tensors_from_calculus(calc: PointCalculus) -> OneillData:
    r = calc.r
    uvals, xvals = calc.frame.vert_values, calc.frame.horiz_values
    t_uu = calc.t_point(uvals[:, None], uvals)
    t_coeff = calc.pairings(t_uu[:, :, None], xvals)
    a_xx = calc.a_point(xvals[:, None], xvals)
    a_coeff = calc.pairings(a_xx[:, :, None], uvals)
    t_ux = calc.t_point(uvals[:, None], xvals)
    norm_tv_sq = running_sum(calc.pairings(t_ux, t_ux).ravel())
    a_xu = calc.a_point(xvals[:, None], uvals)
    norm_ah_sq = running_sum(calc.pairings(a_xu, a_xu).ravel())
    ks = np.arange(r)
    n_vec = running_sum(t_uu[ks, ks])
    h_vec = n_vec / r
    phix = calc.phi_of(xvals)
    b_part = calc.v_project_values(phix)
    trace_phi_b = running_sum(calc.pairings(calc.phi_of(b_part), xvals))
    return OneillData(
        t_coeff=t_coeff,
        a_coeff=a_coeff,
        t_uu=t_uu,
        a_xx=a_xx,
        sum_t_sq=float(np.sum(t_coeff**2)),
        sum_a_sq=float(np.sum(a_coeff**2)),
        norm_tv_sq=float(norm_tv_sq),
        norm_ah_sq=float(norm_ah_sq),
        n_vec=n_vec,
        h_vec=h_vec,
        n_norm_sq=float(calc.pairings(n_vec, n_vec)),
        trace_phi_b=float(trace_phi_b),
    )


def verify_structure_lemmas(calc: PointCalculus, data: OneillData) -> dict:
    """Pointwise residuals of the structural identities of the split, from
    the point's ``PointCalculus`` and the tensor data built on it.

    ``t_symmetry``: the vertical-block tensor is symmetric on fiber pairs.
    ``a_alternation``: the horizontal-block tensor alternates on horizontal
    pairs.  ``skew_t``/``skew_a``: both tensors are skew-adjoint as operators.
    ``anti_invariance``: phi maps the vertical space into the horizontal one.
    ``c_square``: the horizontal part of phi squares to minus the identity up
    to the vertical part of phi and, with the Reeb field horizontal, the Reeb
    correction.
    """
    uvals, xvals = calc.frame.vert_values, calc.frame.horiz_values
    res = {}
    res["t_symmetry"] = float(
        np.max(np.abs(data.t_coeff - np.swapaxes(data.t_coeff, 0, 1)))
    )
    res["a_alternation"] = float(
        np.max(np.abs(data.a_coeff + np.swapaxes(data.a_coeff, 0, 1)))
    )
    frame = np.asarray(calc.frame.jets.value, dtype=float)  # vertical block first
    for key, tensor in (("skew_t", calc.t_point), ("skew_a", calc.a_point)):
        img = tensor(frame[:, None], frame)  # [e, f]
        # [e, f, g]: g(P(e, f), g) + g(f, P(e, g))
        skew = calc.pairings(img[:, :, None], frame) + calc.pairings(
            frame[:, None], img[:, None, :]
        )
        res[key] = max_residual(np.abs(skew))
    phi_u = calc.phi_of(uvals)
    res["anti_invariance"] = max_residual(np.abs(calc.pairings(phi_u[:, None], uvals)))
    phix = calc.phi_of(xvals)
    b_part = calc.v_project_values(phix)
    c_part = calc.h_project_values(phix)
    resid = calc.h_project_values(calc.phi_of(c_part)) + xvals
    if calc.sub.xi_case == "horizontal":
        resid = resid - calc.eta_of(xvals)[:, None] * calc.xi_values
    resid = resid + calc.phi_of(b_part)
    c_sq = np.max(np.abs(resid), axis=1)
    res["c_square"] = max_residual(c_sq)
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

    total = space_form_from_document(data)
    chart, dim = total.model.chart, total.model.dim
    base = chart_model_from_document(data, "base_", str(data["name"]) + "-base")
    projection = compile_vector(data["projection"], chart, "projection")

    def field_block(key, prefix):
        return tuple(
            VectorField(
                components=compile_vector(row, chart, f"{key} field {idx}", dim),
                name=f"{prefix}{idx + 1}",
            )
            for idx, row in enumerate(block(data[key], key))
        )

    vertical = field_block("vertical", "V")
    horizontal = field_block("horizontal", "H")
    locus = compile_guard(data["locus"], chart) if "locus" in data else None
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
