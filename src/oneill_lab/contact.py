"""Almost-contact metric structures and Sasakian space-form checks.

The builtin total space is the standard contact metric structure on
R^(2m+1) with constant phi-sectional curvature -3. Chart layout, 0-based:
x_1..x_m at 0..m-1, y_1..y_m at m..2m-1, z at 2m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError
from .jets import as_jet, seed
from .riemannian import (
    ManifoldModel,
    VectorField,
    christoffel_at,
    metric_at,
    sectional_curvature,
)


@dataclass(frozen=True)
class ContactStructure:
    """(phi, xi, eta) data on a chart. phi[i][j] is the component of
    phi(d_j) along d_i; eta[a] is the covector component on d_a."""

    model: ManifoldModel
    phi: tuple  # dim x dim nested tuple of callables
    xi: VectorField
    eta: tuple  # dim callables

    def phi_at(self, coords, order: int = 1):
        """phi values (i, j) and, for order 1+, partials (i, j, a)."""
        pt = seed(coords, order=order)
        d = self.model.dim
        val = np.zeros((d, d))
        dphi = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                jet = as_jet(self.phi[i][j](pt.vars), d, order=order)
                val[i, j] = jet.value
                dphi[i, j, :] = jet.gradient
        return val, dphi

    def eta_at(self, coords) -> np.ndarray:
        pt = seed(coords, order=1)
        d = self.model.dim
        return np.array([as_jet(self.eta[a](pt.vars), d, order=1).value for a in range(d)])

    def xi_at(self, coords) -> np.ndarray:
        pt = seed(coords, order=1)
        d = self.model.dim
        return np.array(
            [j.value for j in self.xi.evaluate(pt.vars, d, order=1)]
        )


@dataclass(frozen=True)
class SasakianSpaceFormSpec:
    """A contact structure together with its constant phi-sectional curvature
    and a preferred global orthonormal frame (phi-adapted, Reeb field last)."""

    c: float
    structure: ContactStructure
    frame: tuple  # VectorFields: E_1..E_m, phi E_1..phi E_m, xi

    @property
    def model(self) -> ManifoldModel:
        return self.structure.model


def build_r2m1(m: int) -> SasakianSpaceFormSpec:
    """The R^(2m+1) space form with c = -3 in Darboux-type coordinates."""
    if m < 1:
        raise RejectedInputError(f"need m >= 1, got {m}")
    dim = 2 * m + 1
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

    frame = []
    for i in range(m):
        comps = tuple(
            (lambda vs: 2.0) if k == m + i else (lambda vs: 0.0) for k in range(dim)
        )
        frame.append(VectorField(components=comps, name=f"E{i + 1}"))
    for i in range(m):
        # phi E_i = 2 (d_{x_i} + y_i d_z)
        def comp(k, a=i):
            if k == a:
                return lambda vs: 2.0
            if k == z:
                return lambda vs, b=a: 2.0 * vs[m + b]
            return lambda vs: 0.0

        frame.append(
            VectorField(components=tuple(comp(k) for k in range(dim)), name=f"P{i + 1}")
        )
    frame.append(xi)
    return SasakianSpaceFormSpec(c=-3.0, structure=structure, frame=tuple(frame))


def verify_sasakian(spec: SasakianSpaceFormSpec, coords, conn=None) -> dict:
    """Residuals of the defining identities at one point, all as max-abs.

    Checks, over coordinate fields: the algebraic almost-contact relations,
    metric compatibility of phi, eta = g(., xi), the Reeb derivative law
    nabla_X xi = -phi X, and the covariant-derivative law of phi. ``conn``
    is the connection at ``coords`` when the caller already has it.
    """
    st = spec.structure
    model = st.model
    d = model.dim
    if conn is None:
        conn = christoffel_at(model, coords)
    gv = conn.metric.value
    phi_v, dphi = st.phi_at(coords, order=1)
    eta_v = st.eta_at(coords)
    pt = seed(coords, order=1)
    xi_jets = st.xi.evaluate(pt.vars, d, order=1)
    xi_v = np.array([j.value for j in xi_jets])
    dxi = np.array([j.gradient for j in xi_jets])  # dxi[k, a] = d_a xi^k

    # phi^2 = -I + xi (x) eta
    alg = phi_v @ phi_v + np.eye(d) - np.outer(xi_v, eta_v)
    res_phi_square = float(np.max(np.abs(alg)))

    res_eta_xi = float(abs(eta_v @ xi_v - 1.0))

    # g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y)
    compat = phi_v.T @ gv @ phi_v - gv + np.outer(eta_v, eta_v)
    res_compat = float(np.max(np.abs(compat)))

    res_eta_metric = float(np.max(np.abs(eta_v - gv @ xi_v)))

    # nabla_{d_a} xi + phi d_a = 0
    nab = dxi + np.einsum("kam,m->ka", conn.gamma, xi_v)
    res_nabla_xi = float(np.max(np.abs(nab + phi_v)))

    # (nabla_{d_a} phi)(d_b) = g_ab xi - eta_b d_a
    nabla_phi = (
        np.einsum("kba->kab", dphi)
        + np.einsum("kam,mb->kab", conn.gamma, phi_v)
        - np.einsum("km,mab->kab", phi_v, conn.gamma)
    )
    target = np.einsum("ab,k->kab", gv, xi_v) - np.einsum(
        "b,ka->kab", eta_v, np.eye(d)
    )
    res_nabla_phi = float(np.max(np.abs(nabla_phi - target)))

    return {
        "phi_square": res_phi_square,
        "eta_xi": res_eta_xi,
        "phi_metric_compat": res_compat,
        "eta_is_metric_dual": res_eta_metric,
        "reeb_derivative": res_nabla_xi,
        "phi_derivative": res_nabla_phi,
    }


def space_form_r4_at(spec: SasakianSpaceFormSpec, coords) -> np.ndarray:
    """``space_form_r4`` of the spec's structure at ``coords``."""
    st = spec.structure
    phi_v, _ = st.phi_at(coords, order=1)
    return space_form_r4(spec.c, metric_at(st.model, coords).value, phi_v, st.eta_at(coords))


def space_form_r4(c: float, gv, phi_v, eta_v) -> np.ndarray:
    """Model-independent curvature of a space form with constant
    phi-sectional curvature c, assembled purely from the values of
    (g, phi, eta) at a point. Same slot convention as riemannian.r4."""
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    # p2[j, k] = g(phi d_j, d_k)
    p2 = np.einsum("mj,mk->jk", phi_v, gv)
    e = eta_v
    term_q = np.einsum("jk,il->ijkl", gv, gv) - np.einsum("ik,jl->ijkl", gv, gv)
    term_w = (
        np.einsum("i,k,jl->ijkl", e, e, gv)
        - np.einsum("j,k,il->ijkl", e, e, gv)
        + np.einsum("ik,j,l->ijkl", gv, e, e)
        - np.einsum("jk,i,l->ijkl", gv, e, e)
        + np.einsum("jk,il->ijkl", p2, p2)
        - np.einsum("ik,jl->ijkl", p2, p2)
        - 2.0 * np.einsum("ij,kl->ijkl", p2, p2)
    )
    return q * term_q + w * term_w


def phi_sectional(spec: SasakianSpaceFormSpec, coords, x) -> float:
    """Sectional curvature of span{X, phi X} for unit X orthogonal to xi."""
    st = spec.structure
    gv = metric_at(st.model, coords).value
    x = np.asarray(x, dtype=float)
    eta_v = st.eta_at(coords)
    if abs(float(x @ gv @ x) - 1.0) > 1e-10:
        raise RejectedInputError("phi_sectional needs a unit vector")
    if abs(float(eta_v @ x)) > 1e-10:
        raise RejectedInputError("phi_sectional needs X orthogonal to xi")
    phi_v, _ = st.phi_at(coords, order=1)
    return sectional_curvature(st.model, coords, x, phi_v @ x)


def frame_components_at(spec: SasakianSpaceFormSpec, coords) -> np.ndarray:
    """Chart components of the preferred frame, one row per field."""
    pt = seed(coords, order=1)
    d = spec.model.dim
    return np.array(
        [[j.value for j in f.evaluate(pt.vars, d, order=1)] for f in spec.frame]
    )
