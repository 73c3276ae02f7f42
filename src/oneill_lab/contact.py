"""Almost-contact metric structures and Sasakian space-form checks.

A space form is read from the total-space half of a model document, also
for the builtin family: the standard contact metric structure on R^(2m+1)
with constant phi-sectional curvature -3. Chart layout, 0-based: x_1..x_m
at 0..m-1, y_1..y_m at m..2m-1, z at 2m.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import RejectedInputError
from .expressions import (
    block,
    compile_expression,
    compile_matrix,
    compile_vector,
    same_expression,
)
from .jets import seed_block
from .riemannian import (
    _BLOCK_ENTRIES,
    ConnectionData,
    CurvatureData,
    ManifoldModel,
    christoffel_at,
    curvature_from_connection,
    model_jets,
)


class ContactData(NamedTuple):
    """Contact data on a block of points, the point axis ``p`` leading."""

    phi: np.ndarray  # (p, i, j): component of phi(d_j) along d_i
    dphi: np.ndarray  # (p, i, j, a): its partial in direction a
    eta: np.ndarray  # (p, a)
    xi: np.ndarray  # (p, k)
    dxi: np.ndarray  # (p, k, a) = d_a xi^k


class SasakianSpaceFormSpec(NamedTuple):
    """A Sasakian space form: its chart model, constant phi-sectional
    curvature c, and (phi, xi, eta) on the chart. phi[i][j] is the component
    of phi(d_j) along d_i; eta[a] is the covector component on d_a."""

    model: ManifoldModel
    c: float
    phi: tuple  # dim x dim nested tuple of callables
    xi: tuple  # dim callables
    eta: tuple  # dim callables

    def contact_at(self, vs) -> ContactData:
        """phi and xi with their first partials, and eta, on the order-1
        coordinate jets ``vs`` of a block of points (:func:`jets.seed_block`):
        each callable runs once per block."""
        phi = model_jets(self.phi, vs)
        eta = model_jets(self.eta, vs)
        xi = model_jets(self.xi, vs)
        return ContactData(
            phi=phi.value, dphi=phi.gradient, eta=eta.value, xi=xi.value, dxi=xi.gradient
        )


def chart_model_from_document(doc: dict, prefix: str, name: str, memo: dict) -> ManifoldModel:
    """The chart model of the keys ``<prefix>chart``, ``<prefix>metric`` and
    the optional ``<prefix>domain`` of a model document; ``memo`` as for
    ``expressions.compile_vector``."""
    chart = tuple(str(v) for v in block(doc[prefix + "chart"], prefix + "chart"))
    if len(set(chart)) != len(chart):
        raise RejectedInputError(f"{prefix}chart repeats a name: {list(chart)}")
    rows = doc[prefix + "metric"]
    metric = compile_matrix(rows, chart, prefix + "metric", memo)
    # read from its upper triangle, so the lower one must mirror it: the same
    # string or, where the strings differ, the same expression
    for i in range(len(chart)):
        for j in range(i):
            lower, upper = str(rows[i][j]), str(rows[j][i])
            if lower != upper and not same_expression(lower, upper):
                raise RejectedInputError(f"{prefix}metric [{i}][{j}] differs from [{j}][{i}]")
    domain = prefix + "domain"
    guard = compile_expression(str(doc[domain]), chart) if domain in doc else None
    return ManifoldModel(
        name=name, dim=len(chart), chart=chart, metric=metric, domain_guard=guard
    )


def space_form_from_document(doc: dict, memo: dict) -> SasakianSpaceFormSpec:
    """The total space of a model document, a dict of the schema
    ``oneill-lab-model/1``: its ``name``, ``chart``, ``metric``, optional
    ``domain``, and the ``contact`` block. Every entry is an expression
    string over the chart, compiled by ``expressions.compile_expression``
    once per distinct string of the document (``memo``, a dict kept for the
    document's compilation)."""
    model = chart_model_from_document(doc, "", str(doc["name"]), memo)
    chart, dim = model.chart, model.dim
    contact = doc["contact"]
    if not isinstance(contact, dict):
        raise RejectedInputError("the contact block must be a JSON object")
    for key in ("c", "phi", "xi", "eta"):
        if key not in contact:
            raise RejectedInputError(f"contact block is missing key {key!r}")
    try:  # a JSON number or a numeric string; true is not 1.0
        c = None if isinstance(contact["c"], bool) else float(contact["c"])
    except (TypeError, ValueError, OverflowError):
        c = None
    if c is None or not np.isfinite(c):
        raise RejectedInputError(f"contact c must be a finite real number, got {contact['c']!r}")
    phi = compile_matrix(contact["phi"], chart, "contact phi", memo)
    xi = compile_vector(contact["xi"], chart, "contact xi", memo, dim)
    eta = compile_vector(contact["eta"], chart, "contact eta", memo, dim)
    return SasakianSpaceFormSpec(model=model, c=c, phi=phi, xi=xi, eta=eta)


def build_r2m1(m: int) -> SasakianSpaceFormSpec:
    """The R^(2m+1) space form with c = -3 in Darboux-type coordinates, as
    a model document through ``space_form_from_document``.

    m runs from 1 to 6: from m = 7 on (d >= 15), one point's d^4-sized
    arrays exceed 256 KiB (``riemannian._BLOCK_ENTRIES``)."""
    dim = 2 * m + 1
    if m < 1 or dim**4 > _BLOCK_ENTRIES:
        raise RejectedInputError(
            f"need m >= 1 with (2m + 1)**4 <= {_BLOCK_ENTRIES}, one point's "
            f"curvature entries within 256 KiB, got m = {m}"
        )
    z = 2 * m
    y = [f"y{a + 1}" for a in range(m)]
    metric = [["0"] * dim for _ in range(dim)]
    phi = [["0"] * dim for _ in range(dim)]
    for a in range(m):
        for b in range(a, m):
            metric[a][b] = metric[b][a] = f"({y[a]}*{y[a]}+1)/4" if a == b else f"{y[a]}*{y[b]}/4"
        metric[a][z] = metric[z][a] = f"-{y[a]}/4"
        metric[m + a][m + a] = "0.25"
        # phi(d_{x_a}) = -d_{y_a};  phi(d_{y_a}) = d_{x_a} + y_a d_z;  phi(d_z) = 0
        phi[m + a][a] = "-1"
        phi[a][m + a] = "1"
        phi[z][m + a] = y[a]
    metric[z][z] = "0.25"
    doc = {
        "name": f"r{dim}_c-3",
        "chart": [f"x{a + 1}" for a in range(m)] + y + ["z"],
        "metric": metric,
        "contact": {
            "c": -3,
            "phi": phi,
            "xi": ["0"] * z + ["2"],
            "eta": [f"-{v}/2" for v in y] + ["0"] * m + ["0.5"],
        },
    }
    return space_form_from_document(doc, {})


def verify_sasakian(data: SpaceFormData) -> dict:
    """Residuals of the defining identities on a block's total-space data,
    each as one max-abs value per point, shape ``(N,)``.

    Checks, over coordinate fields: the algebraic almost-contact relations,
    metric compatibility of phi, eta = g(., xi), the Reeb derivative law
    nabla_X xi = -phi X, and the covariant-derivative law of phi.
    """
    conn, contact = data.conn, data.contact
    d = data.points.shape[1]
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
        + _gamma_phi(conn.gamma, phi_v)
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


def _gamma_phi(gamma: np.ndarray, phi_v: np.ndarray) -> np.ndarray:
    """``np.einsum("pkam,pmb->pkab", gamma, phi_v)``, bit for bit, C-ordered.

    Read from C-ordered copies of gamma with its summed ``m`` first and of
    the transposed phi, einsum's loop runs along the ``ka`` rows over the
    same products, summed in the same order; the result, laid out as
    ``(p, b, k, a)``, is copied into C order."""
    rows = np.einsum(
        "pmka,pbm->pkab",
        np.ascontiguousarray(gamma.transpose(0, 3, 1, 2)),
        np.ascontiguousarray(phi_v.transpose(0, 2, 1)),
    )
    return np.ascontiguousarray(rows)


class SpaceFormData(NamedTuple):
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
    # one seed per block: the contact data reads the metric's coordinate
    # jets without their Hessians
    vs = seed_block(points)
    conn = christoffel_at(spec.model, points, vs)
    contact = spec.contact_at([v.first_order() for v in vs])
    # the closed form first: its temporaries are freed before the jet
    # curvature's are made, so fewer d^4-sized arrays are live at once
    closed = space_form_r4(spec.c, conn.metric.value, contact.phi, contact.eta)
    return SpaceFormData(
        points=points,
        conn=conn,
        curvature=curvature_from_connection(conn),
        contact=contact,
        closed=closed,
    )


def space_form_r4_at(spec: SasakianSpaceFormSpec, coords) -> np.ndarray:
    """``space_form_r4`` of the spec at one point: the closed form of the
    block of that point alone (a jet's value never reads its derivatives)."""
    return space_form_data(spec, np.asarray(coords, dtype=float)[None]).closed[0]


def space_form_weights(c: float) -> tuple:
    """(q, w) = ((c + 3)/4, (c - 1)/4): the weights of the metric term and
    of the contact term in the curvature of a Sasakian space form of
    constant phi-sectional curvature c, and in every bound built on it."""
    return (c + 3.0) / 4.0, (c - 1.0) / 4.0


def space_form_r4(c: float, gv, phi_v, eta_v) -> np.ndarray:
    """Model-independent curvature of a space form with constant
    phi-sectional curvature c, assembled purely from the values of
    (g, phi, eta) on a block of points, the point axis ``p`` leading. Same
    slot convention as riemannian.r4."""
    q, w = space_form_weights(c)
    # p2[j, k] = g(phi d_j, d_k)
    p2 = np.einsum("pmj,pmk->pjk", phi_v, gv)
    e = eta_v
    # summed in place, left to right; each product subtracted is the one before, i, j swapped
    swap = (0, 2, 1, 3, 4)
    x = np.einsum("pjk,pil->pijkl", gv, gv)
    term_q = x - x.transpose(swap)
    np.einsum("pi,pk,pjl->pijkl", e, e, gv, out=x)
    term_w = x - x.transpose(swap)
    for spec, ops in (("pik,pj,pl->pijkl", (gv, e, e)), ("pjk,pil->pijkl", (p2, p2))):
        np.einsum(spec, *ops, out=x)
        term_w += x
        term_w -= x.transpose(swap)
    np.einsum("pij,pkl->pijkl", p2, p2, out=x)
    x *= 2.0
    term_w -= x
    term_q *= q
    term_w *= w
    term_q += term_w
    return term_q
