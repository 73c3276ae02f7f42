"""Test-only geometry of the space forms R^(2m+1) of ``contact.build_r2m1``.

The Darboux frame is written in closed form from the chart layout
(x_1..x_m, y_1..y_m, z): E_i = 2 d/dy_i, phi E_i = 2 (d/dx_i + y_i d/dz)
and xi = 2 d/dz. It shares no code with the engine, so it can check the
engine's metric, phi and curvature. The sectional curvatures pair the
engine's curvature tensor at one point with the given vectors.
"""

import numpy as np

from oneill_lab.errors import OneillLabError, RejectedInputError
from oneill_lab.jets import seed_block
from oneill_lab.riemannian import metric_at, pair_r4, riemann_at


class DegeneratePlaneError(OneillLabError):
    """Sectional curvature requested for a (near-)degenerate 2-plane."""


def darboux_frame(coords) -> np.ndarray:
    """Chart components of E_1..E_m, phi E_1..phi E_m and xi at ``coords``,
    one row per field; an orthonormal, phi-adapted frame."""
    coords = np.asarray(coords, dtype=float)
    m = (coords.size - 1) // 2
    z = 2 * m
    frame = np.zeros((z + 1, z + 1))
    for i in range(m):
        frame[i, m + i] = 2.0
        frame[m + i, i] = 2.0
        frame[m + i, z] = 2.0 * coords[m + i]
    frame[z, z] = 2.0
    return frame


def sectional_curvature(model, coords, x, y) -> float:
    """K(span{X, Y}) = R(X, Y, Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)."""
    curv = riemann_at(model, coords)
    gv = metric_at(model, np.asarray(coords, dtype=float)[None]).value[0]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = float(x @ gv @ x)
    yy = float(y @ gv @ y)
    xy = float(x @ gv @ y)
    denom = xx * yy - xy * xy
    if denom < 1e-12:
        raise DegeneratePlaneError(f"2-plane degenerate: Gram determinant {denom:.3e}")
    return float(pair_r4(curv.r4[0], x, y, y, x)) / denom


def phi_sectional(spec, coords, x) -> float:
    """Sectional curvature of span{X, phi X} for unit X orthogonal to xi."""
    points = np.asarray(coords, dtype=float)[None]
    gv = metric_at(spec.model, points).value[0]
    contact = spec.contact_at(seed_block(points, order=1))
    x = np.asarray(x, dtype=float)
    if abs(float(x @ gv @ x) - 1.0) > 1e-10:
        raise RejectedInputError("phi_sectional needs a unit vector")
    if abs(float(contact.eta[0] @ x)) > 1e-10:
        raise RejectedInputError("phi_sectional needs X orthogonal to xi")
    return sectional_curvature(spec.model, coords, x, contact.phi[0] @ x)
