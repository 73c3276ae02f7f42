"""Almost-contact metric structures and Sasakian space-form checks.

The builtin total space is the standard contact metric structure on
R^(2m+1) with constant phi-sectional curvature -3. Chart layout, 0-based:
x_1..x_m at 0..m-1, y_1..y_m at m..2m-1, z at 2m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError
from .jets import seed_block
from .riemannian import (
    _BLOCK_ENTRIES,
    ConnectionData,
    CurvatureData,
    ManifoldModel,
    PointAxis,
    VectorField,
    christoffel_at,
    curvature_from_connection,
    metric_at,
    model_jets,
)


@dataclass(frozen=True)
class ContactStructure:
    """(phi, xi, eta) data on a chart. phi[i][j] is the component of
    phi(d_j) along d_i; eta[a] is the covector component on d_a."""

    model: ManifoldModel
    phi: tuple  # dim x dim nested tuple of callables
    xi: VectorField
    eta: tuple  # dim callables

    def at(self, points) -> "ContactData":
        """phi and xi with their first partials, and eta, on a block of
        points ``(N, d)``: each callable runs once per block."""
        vs = seed_block(points, order=1)
        phi = model_jets(self.phi, vs)
        eta = model_jets(self.eta, vs)
        xi = model_jets(self.xi.components, vs)
        return ContactData(
            phi=phi.value, dphi=phi.gradient, eta=eta.value, xi=xi.value, dxi=xi.gradient
        )


@dataclass(frozen=True)
class ContactData(PointAxis):
    """Contact data on a block of points, the point axis ``p`` leading."""

    phi: np.ndarray  # (p, i, j): component of phi(d_j) along d_i
    dphi: np.ndarray  # (p, i, j, a): its partial in direction a
    eta: np.ndarray  # (p, a)
    xi: np.ndarray  # (p, k)
    dxi: np.ndarray  # (p, k, a) = d_a xi^k


@dataclass(frozen=True)
class SasakianSpaceFormSpec:
    """A contact structure together with its constant phi-sectional curvature."""

    c: float
    structure: ContactStructure

    @property
    def model(self) -> ManifoldModel:
        return self.structure.model


def build_r2m1(m: int) -> SasakianSpaceFormSpec:
    """The R^(2m+1) space form with c = -3 in Darboux-type coordinates.

    m runs from 1 to 6: from m = 7 on (d >= 15), one point's d^4-sized
    arrays exceed the entry budget of a block of ``riemannian.point_blocks``."""
    dim = 2 * m + 1
    if m < 1 or dim**4 > _BLOCK_ENTRIES:
        raise RejectedInputError(
            f"need m >= 1 with (2m + 1)**4 <= {_BLOCK_ENTRIES}, the entries "
            f"of a block's curvature arrays, got m = {m}"
        )
    z = 2 * m

    def metric_entry(i, j):
        # symmetric; only i <= j is consulted by metric_at
        if i < m and j < m:
            if i == j:
                return lambda vs, a=i: (vs[m + a] * vs[m + a] + 1.0) / 4.0
            return lambda vs, a=i, b=j: vs[m + a] * vs[m + b] / 4.0
        if i < m and j == z:
            return lambda vs, a=i: -vs[m + a] / 4.0
        if m <= i < z and i == j:
            return lambda vs: 0.25
        if i == j == z:
            return lambda vs: 0.25
        return lambda vs: 0.0

    metric = tuple(tuple(metric_entry(i, j) for j in range(dim)) for i in range(dim))
    model = ManifoldModel(
        name=f"r{dim}_c-3",
        dim=dim,
        chart=tuple(
            [f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(m)] + ["z"]
        ),
        metric=metric,
    )

    def phi_entry(i, j):
        # phi(d_{x_j}) = -d_{y_j};  phi(d_{y_j}) = d_{x_j} + y_j d_z;  phi(d_z) = 0
        if j < m and i == m + j:
            return lambda vs: -1.0
        if m <= j < z and i == j - m:
            return lambda vs: 1.0
        if m <= j < z and i == z:
            return lambda vs, b=j: vs[b]
        return lambda vs: 0.0

    phi = tuple(tuple(phi_entry(i, j) for j in range(dim)) for i in range(dim))

    xi = VectorField(
        components=tuple(
            (lambda vs: 2.0) if k == z else (lambda vs: 0.0) for k in range(dim)
        ),
        name="xi",
    )

    def eta_entry(a):
        if a < m:
            return lambda vs, b=a: -vs[m + b] / 2.0
        if a == z:
            return lambda vs: 0.5
        return lambda vs: 0.0

    eta = tuple(eta_entry(a) for a in range(dim))
    structure = ContactStructure(model=model, phi=phi, xi=xi, eta=eta)
    return SasakianSpaceFormSpec(c=-3.0, structure=structure)


def verify_sasakian(
    spec: SasakianSpaceFormSpec,
    points,
    conn: ConnectionData | None = None,
    contact: ContactData | None = None,
) -> dict:
    """Residuals of the defining identities on a block of points ``(N, d)``,
    each as one max-abs value per point, shape ``(N,)``.

    Checks, over coordinate fields: the algebraic almost-contact relations,
    metric compatibility of phi, eta = g(., xi), the Reeb derivative law
    nabla_X xi = -phi X, and the covariant-derivative law of phi. ``conn``
    and ``contact`` are the block's connection and contact data when the
    caller already has them.
    """
    st = spec.structure
    d = st.model.dim
    if conn is None:
        conn = christoffel_at(st.model, points)
    if contact is None:
        contact = st.at(points)
    gv = conn.metric.value
    phi_v, dphi = contact.phi, contact.dphi
    eta_v, xi_v, dxi = contact.eta, contact.xi, contact.dxi
    # one point's vectors as (1, d) rows and (d, 1) columns, so that each
    # matrix product has the shapes, and the sums, of the one-point case
    eta_row, xi_col = eta_v[:, None, :], xi_v[:, :, None]
    per_point = (1, 2)

    # phi^2 = -I + xi (x) eta
    alg = phi_v @ phi_v + np.eye(d) - xi_col * eta_row
    res_phi_square = np.max(np.abs(alg), axis=per_point)

    res_eta_xi = np.abs((eta_row @ xi_col)[:, 0, 0] - 1.0)

    # g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)
    compat = np.swapaxes(phi_v, 1, 2) @ gv @ phi_v - gv + eta_v[:, :, None] * eta_row
    res_compat = np.max(np.abs(compat), axis=per_point)

    res_eta_metric = np.max(np.abs(eta_v - (gv @ xi_col)[:, :, 0]), axis=1)

    # nabla_{d_a} xi + phi d_a = 0
    nab = dxi + np.einsum("pkam,pm->pka", conn.gamma, xi_v)
    res_nabla_xi = np.max(np.abs(nab + phi_v), axis=per_point)

    # (nabla_{d_a} phi)(d_b) = g_ab xi - eta_b d_a
    nabla_phi = (
        np.einsum("pkba->pkab", dphi)
        + np.einsum("pkam,pmb->pkab", conn.gamma, phi_v)
        - np.einsum("pkm,pmab->pkab", phi_v, conn.gamma)
    )
    target = np.einsum("pab,pk->pkab", gv, xi_v) - np.einsum(
        "pb,ka->pkab", eta_v, np.eye(d)
    )
    res_nabla_phi = np.max(np.abs(nabla_phi - target), axis=(1, 2, 3))

    return {
        "phi_square": res_phi_square,
        "eta_xi": res_eta_xi,
        "phi_metric_compat": res_compat,
        "eta_is_metric_dual": res_eta_metric,
        "reeb_derivative": res_nabla_xi,
        "phi_derivative": res_nabla_phi,
    }


@dataclass(frozen=True)
class SpaceFormData(PointAxis):
    """A Sasakian space form on a block of points: the connection, the jet
    curvature, the contact data and the closed-form curvature."""

    points: np.ndarray  # (p, d)
    conn: ConnectionData
    curvature: CurvatureData
    contact: ContactData
    closed: np.ndarray  # (p, i, j, k, l), the slots of curvature.r4


def space_form_data(spec: SasakianSpaceFormSpec, points) -> SpaceFormData:
    """Evaluate the metric, connection, curvature and contact data once on
    a block of points ``(N, d)``."""
    points = np.asarray(points, dtype=float)
    conn = christoffel_at(spec.model, points)
    contact = spec.structure.at(points)
    return SpaceFormData(
        points=points,
        conn=conn,
        curvature=curvature_from_connection(conn),
        contact=contact,
        closed=space_form_r4(spec.c, conn.metric.value, contact.phi, contact.eta),
    )


def space_form_r4_at(spec: SasakianSpaceFormSpec, coords) -> np.ndarray:
    """``space_form_r4`` of the spec's structure at one point."""
    st = spec.structure
    points = np.asarray(coords, dtype=float)[None]
    contact = st.at(points)
    gv = metric_at(st.model, points, order=1).value
    return space_form_r4(spec.c, gv, contact.phi, contact.eta)[0]


def space_form_r4(c: float, gv, phi_v, eta_v) -> np.ndarray:
    """Model-independent curvature of a space form with constant
    phi-sectional curvature c, assembled purely from the values of
    (g, phi, eta) on a block of points, the point axis ``p`` leading. Same
    slot convention as riemannian.r4."""
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    # p2[j, k] = g(phi d_j, d_k)
    p2 = np.einsum("pmj,pmk->pjk", phi_v, gv)
    e = eta_v
    # q * term_q + w * term_w, each sum accumulated in place, left to right
    term_q = np.einsum("pjk,pil->pijkl", gv, gv)
    term_q -= np.einsum("pik,pjl->pijkl", gv, gv)
    term_w = np.einsum("pi,pk,pjl->pijkl", e, e, gv)
    term_w -= np.einsum("pj,pk,pil->pijkl", e, e, gv)
    term_w += np.einsum("pik,pj,pl->pijkl", gv, e, e)
    term_w -= np.einsum("pjk,pi,pl->pijkl", gv, e, e)
    term_w += np.einsum("pjk,pil->pijkl", p2, p2)
    term_w -= np.einsum("pik,pjl->pijkl", p2, p2)
    last = np.einsum("pij,pkl->pijkl", p2, p2)
    last *= 2.0
    term_w -= last
    del last
    term_q *= q
    term_w *= w
    term_q += term_w
    return term_q
