"""Inequality catalog for the block curvature of anti-invariant submersions.

Each entry compares a curvature quantity of one block (a Ricci value on a
unit probe vector, or a block scalar curvature) against a bound built from
the constant phi-sectional-curvature of the total space and the fundamental
tensor norms.  One theorem at one point evaluates to a table of arrays with a
row per probe (per probe and bound variant for CRH1): the signed slack
(nonnegative means the bound holds), an equality flag, and the size of the
tensor obstruction that must vanish for equality.

Stable ids: V1, V2, H1 and CRV1, CRH1, CMB1 apply when the Reeb field is
vertical; V3, H2 and CRV2, CRH2, CMB2 when it is horizontal.  Evaluating an
id against a model with the other Reeb position is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateFrameError, EmptySampleError, RejectedInputError
from .invariants import PointAnalysis, ric_hat_probes, ric_star_probes


class _Theorem(NamedTuple):
    xi_case: str  # where the Reeb field must lie
    needs_v: bool  # probes a vertical unit vector
    needs_h: bool  # probes a horizontal unit vector
    sense: str  # "ge": holds when lhs >= rhs; "le": when lhs <= rhs
    equality_class: str


_CATALOG = {
    "V1": _Theorem("vertical", True, False, "ge", "totally_geodesic"),
    "V2": _Theorem("vertical", False, False, "ge", "totally_geodesic"),
    "H1": _Theorem("vertical", False, False, "le", "integrable"),
    "V3": _Theorem("horizontal", False, False, "ge", "totally_geodesic"),
    "H2": _Theorem("horizontal", False, False, "le", "integrable"),
    "CRV1": _Theorem("vertical", True, False, "ge", "chen_t"),
    "CRH1": _Theorem("vertical", False, True, "le", "chen_a"),
    "CRV2": _Theorem("horizontal", True, False, "ge", "chen_t"),
    "CRH2": _Theorem("horizontal", False, True, "le", "chen_a"),
    "CMB1": _Theorem("vertical", True, True, "le", "chen_t"),
    "CMB2": _Theorem("horizontal", True, True, "le", "chen_t"),
}

THEOREM_IDS = tuple(_CATALOG)

# bound variants for the horizontal Ricci estimate: coefficient of
# (c - 1) * |CX|^2 on the right-hand side
CRH1_VARIANTS = (("kappa=3/4", 0.75), ("kappa=3/8", 0.375))

EQUALITY_TOL = 1e-9
SLACK_FLOOR = -1e-9

_GS_DROP_SQ = 1e-12


def required_xi_case(theorem_id: str) -> str:
    if theorem_id not in _CATALOG:
        raise RejectedInputError(f"unknown theorem id: {theorem_id}")
    return _CATALOG[theorem_id].xi_case


def applicable_ids(xi_case: str):
    return tuple(t for t in THEOREM_IDS if required_xi_case(t) == xi_case)


@dataclass(frozen=True)
class TheoremTable:
    """One theorem at one point, a row per probe (per probe and CRH1
    variant, variants inner). ``slack`` >= 0 means the bound holds;
    ``equality`` flags |slack| <= EQUALITY_TOL; ``equality_defect`` is the
    tensor obstruction to equality; ``dropped_term`` is V1's dropped term."""

    theorem_id: str
    point: np.ndarray
    variant: Optional[tuple]
    equality_class: str
    probe_vertical: Optional[np.ndarray]
    probe_horizontal: Optional[np.ndarray]
    lhs: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    holds: np.ndarray
    equality: np.ndarray
    equality_defect: np.ndarray
    dropped_term: Optional[np.ndarray]


@dataclass
class TheoremScan:
    theorem_id: str
    points_checked: int
    records: int  # rows over all points
    violations: int
    equalities: int
    min_slack: float
    argmin_point: Optional[np.ndarray]
    variant_tallies: Optional[dict]
    tables: list  # the TheoremTable of each point


def _rotated(frame: np.ndarray, i: int) -> np.ndarray:
    """``frame`` with row i moved to the front."""
    return frame[[i, *range(i), *range(i + 1, len(frame))]]


def _unit_coeffs(rng, k: int) -> np.ndarray:
    coeffs = rng.standard_normal(k)
    norm = np.linalg.norm(coeffs)
    while float(norm) < 1e-8:
        coeffs = rng.standard_normal(k)
        norm = np.linalg.norm(coeffs)
    return coeffs / norm


def _random_probe_frames(calc, frame: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Orthonormal frames (P, k, dim) of the span of ``frame`` (k, dim):
    probe p, ``coeffs[p] @ frame``, first, completed by Gram-Schmidt over the
    rows of ``frame`` in order, skipping a row (numerically) in the span so
    far. All probes run together; ``count`` holds each probe's rows so far,
    and a probe takes no part once it has all k."""
    n_probes, k = coeffs.shape
    rows = np.zeros((n_probes, k, frame.shape[1]))
    rows[:, 0] = (coeffs[:, None, :] @ frame)[:, 0]
    count = np.ones(n_probes, dtype=int)
    for v in frame:
        live = np.flatnonzero(count < k)
        if not live.size:
            break
        w = np.broadcast_to(v, (live.size, v.size))
        for j in range(int(count[live].max())):
            u = rows[live, j]
            w = np.where(
                (count[live] > j)[:, None], w - calc.pairings(u, w)[:, None] * u, w
            )
        nsq = calc.pairings(w, w)
        keep = ~(nsq < _GS_DROP_SQ)
        done = live[keep]
        rows[done, count[done]] = w[keep] / np.sqrt(nsq[keep])[:, None]
        count[done] += 1
    if np.any(count != k):
        raise DegenerateFrameError("probe completion lost rank")
    return rows


def parse_probe_mode(probe_mode: str):
    """``(mode, k)`` of a probe mode: ``first``, ``all``, or ``random:<k>``
    with k written in ASCII decimal digits and at least 1 (k is 0 for the
    other two)."""
    if probe_mode in ("first", "all"):
        return probe_mode, 0
    m = re.fullmatch(r"random:([0-9]+)", probe_mode)
    if m is None or int(m.group(1)) < 1:
        raise RejectedInputError(f"bad probe mode: {probe_mode}")
    return "random", int(m.group(1))


def _probe_frames(analysis: PointAnalysis, theorem_id, mode, k, rng):
    """The vertical and horizontal frames of every probe, stacked (P, r, dim)
    and (P, n, dim), with the probe vector in the first slot of each block
    that the theorem actually probes. Random probes draw in probe order,
    the vertical probe before the horizontal one."""
    needs_v, needs_h = _CATALOG[theorem_id].needs_v, _CATALOG[theorem_id].needs_h
    calc = analysis.calc
    base_v = np.asarray(calc.frame.vert_values, dtype=float)
    base_h = np.asarray(calc.frame.horiz_values, dtype=float)
    if mode == "first" or not (needs_v or needs_h):
        return base_v[None], base_h[None]
    if mode == "all":
        vs = range(base_v.shape[0]) if needs_v else [0]
        hs = range(base_h.shape[0]) if needs_h else [0]
        pairs = [(i, j) for i in vs for j in hs]
        return (
            np.array([_rotated(base_v, i) for i, _ in pairs]),
            np.array([_rotated(base_h, j) for _, j in pairs]),
        )
    coeffs_v, coeffs_h = [], []
    for _ in range(k):
        if needs_v:
            coeffs_v.append(_unit_coeffs(rng, base_v.shape[0]))
        if needs_h:
            coeffs_h.append(_unit_coeffs(rng, base_h.shape[0]))
    return tuple(
        _random_probe_frames(calc, base, np.array(coeffs))
        if coeffs
        else np.repeat(base[None], k, axis=0)
        for base, coeffs in ((base_v, coeffs_v), (base_h, coeffs_h))
    )


def _probe_t_coeff(analysis, vfr, hfr):
    """Per probe: T on the probe's vertical frame in chart components
    (P, r, r, dim) and along its horizontal frame (P, r, r, n)."""
    g = analysis.calc.conn.metric.value
    base_v = np.asarray(analysis.calc.frame.vert_values, dtype=float)
    cv = vfr @ g @ base_v.T
    t_chart = np.einsum("pac,pbd,cdk->pabk", cv, cv, analysis.data.t_uu)
    return t_chart, np.einsum("pabk,kl,psl->pabs", t_chart, g, hfr)


def _probe_a_coeff(analysis, vfr, hfr):
    """Per probe: A on the probe's horizontal frame along its vertical frame
    (P, n, n, r)."""
    g = analysis.calc.conn.metric.value
    base_h = np.asarray(analysis.calc.frame.horiz_values, dtype=float)
    ch = hfr @ g @ base_h.T
    a_chart = np.einsum("psu,ptv,uvk->pstk", ch, ch, analysis.data.a_xx)
    return np.einsum("pstk,kl,pal->psta", a_chart, g, vfr)


def _c_norms_sq(calc, xs) -> np.ndarray:
    """|C x|^2 for horizontal vectors ``xs`` (P, dim): the squared length of
    the horizontal part of phi x."""
    c_part = calc.h_project_values(calc.phi_of(xs))
    return calc.pairings(c_part, c_part)


def _eta_squares(calc, vs) -> np.ndarray:
    """eta(v)**2 for vectors ``vs`` (P, dim), squared as Python floats: a
    float's ``**`` is the C library's pow, which rounds some squares
    differently from numpy's e * e."""
    return np.array([e**2 for e in calc.eta_of(vs).tolist()])


# With one vector in a block, the sums and maxima over the block's other
# vectors are empty and give 0.0, as absolute values that were all 0.0 would.
def _chen_t_defects(tc: np.ndarray) -> np.ndarray:
    diag_rest = tc[:, 1:, 1:, :].diagonal(axis1=1, axis2=2).sum(axis=2)
    worst = np.max(np.abs(tc[:, 0, 0, :] - diag_rest), axis=1)
    off = np.max(np.abs(tc[:, 0, 1:, :]), axis=(1, 2), initial=0.0)
    return np.where(off > worst, off, worst)  # Python's max(worst, off)


def _chen_a_defects(ac: np.ndarray) -> np.ndarray:
    return np.max(np.abs(ac[:, 0, 1:, :]), axis=(1, 2), initial=0.0)


def _evaluate_probes(analysis: PointAnalysis, theorem_id: str, vfr, hfr):
    """The table of one theorem for all probe frames of one point.

    Each quantity is computed for all probes at once, in the float
    operations of a single probe, so every row equals what one probe at a
    time gives, bit for bit. A bound without a probe has one row."""
    data, calc = analysis.data, analysis.calc
    c = calc.sub.total.c
    q, w = (c + 3.0) / 4.0, (c - 1.0) / 4.0
    r, n = calc.r, calc.n
    u1, x1 = vfr[:, 0], hfr[:, 0]
    dropped = variant = None
    variants = 1
    if theorem_id == "V1":
        eta_sq = _eta_squares(calc, u1)
        lhs = ric_hat_probes(calc, u1)
        t_chart, tc = _probe_t_coeff(analysis, vfr, hfr)
        mean_term = calc.pairings(t_chart[:, 0, 0], data.h_vec)
        rhs = q * (r - 1) - w * ((r - 2) * eta_sq + 1.0) - r * mean_term
        defect = float(np.max(np.abs(data.t_coeff)))
        dropped = np.sum(tc[:, 0, :, :] ** 2, axis=(1, 2))
    elif theorem_id in ("V2", "V3"):
        lhs = 2.0 * analysis.tau_hat
        if theorem_id == "V2":
            rhs = q * r * (r - 1) - 2.0 * w * (r - 1) - data.n_norm_sq
        else:
            rhs = q * r * (r - 1) - data.n_norm_sq
        defect = float(np.max(np.abs(data.t_coeff)))
    elif theorem_id in ("H1", "H2"):
        lhs = 2.0 * analysis.tau_star
        if theorem_id == "H1":
            rhs = q * n * (n - 1) + 3.0 * w * (n + data.trace_phi_b)
        else:
            rhs = q * n * (n - 1) + w * (3.0 * data.trace_phi_b + n - 1.0)
        defect = float(np.max(np.abs(data.a_coeff)))
    elif theorem_id in ("CRV1", "CRV2"):
        lhs = ric_hat_probes(calc, u1)
        if theorem_id == "CRV1":
            eta_sq = _eta_squares(calc, u1)
            rhs = q * (r - 1) - w * ((r - 2) * eta_sq + 1.0) - 0.25 * data.n_norm_sq
        else:
            rhs = q * (r - 1) - 0.25 * data.n_norm_sq
        defect = _chen_t_defects(_probe_t_coeff(analysis, vfr, hfr)[1])
    elif theorem_id == "CRH1":
        # rows (probe, variant), variants inner
        variants = len(CRH1_VARIANTS)
        variant = tuple(name for name, _ in CRH1_VARIANTS) * vfr.shape[0]
        kappas = np.array([kappa for _, kappa in CRH1_VARIANTS])
        c1_sq = _c_norms_sq(calc, x1)
        lhs = np.repeat(ric_star_probes(calc, x1), variants)
        rhs = (q * (n - 1) + kappas * (c - 1.0) * c1_sq[:, None]).ravel()
        defects = _chen_a_defects(_probe_a_coeff(analysis, vfr, hfr))
        defect = np.repeat(defects, variants)
    elif theorem_id == "CRH2":
        eta_sq = _eta_squares(calc, x1)
        lhs = ric_star_probes(calc, x1)
        c1_sq = _c_norms_sq(calc, x1)
        rhs = q * (n - 1) + w * ((2.0 - n) * eta_sq - 1.0 + 3.0 * c1_sq)
        defect = _chen_a_defects(_probe_a_coeff(analysis, vfr, hfr))
    else:  # CMB1, CMB2
        if theorem_id == "CMB1":
            inner = 3.0 * r - 4.0 - n - (r - 2) * _eta_squares(calc, u1)
        else:
            inner = 2.0 * r - 4.0 - (n - 2) * _eta_squares(calc, x1)
        lhs = q * (n * r + n + r - 2) + w * (inner + 3.0 * _c_norms_sq(calc, x1))
        ac = _probe_a_coeff(analysis, vfr, hfr)
        a1s_sq = np.sum(ac[:, 0, 1:, :] ** 2, axis=(1, 2))
        rhs = (
            ric_hat_probes(calc, u1)
            + ric_star_probes(calc, x1)
            + 0.25 * data.n_norm_sq
            + 3.0 * a1s_sq
            - analysis.delta_n
            + data.norm_tv_sq
            - data.norm_ah_sq
        )
        defect = _chen_t_defects(_probe_t_coeff(analysis, vfr, hfr)[1])
    entry = _CATALOG[theorem_id]
    rows = vfr.shape[0] * variants
    lhs = np.broadcast_to(np.asarray(lhs, dtype=float), (rows,))
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), (rows,))
    slack = (lhs - rhs) if entry.sense == "ge" else (rhs - lhs)
    return TheoremTable(
        theorem_id=theorem_id,
        point=calc.coords,
        variant=variant,
        equality_class=entry.equality_class,
        probe_vertical=np.repeat(u1, variants, axis=0) if entry.needs_v else None,
        probe_horizontal=np.repeat(x1, variants, axis=0) if entry.needs_h else None,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=slack >= SLACK_FLOOR,
        equality=np.abs(slack) <= EQUALITY_TOL,
        equality_defect=np.broadcast_to(np.asarray(defect, dtype=float), (rows,)),
        dropped_term=dropped,
    )


def evaluate_theorem(
    analysis: PointAnalysis, theorem_id: str, probe_mode: str = "first", rng=None
) -> TheoremTable:
    """The table of one theorem at one analyzed point. Random probes draw
    from ``rng``, or from a generator seeded with 0 made for this call."""
    case = required_xi_case(theorem_id)
    if analysis.calc.sub.xi_case != case:
        raise RejectedInputError(
            f"{theorem_id} needs a model with the Reeb field {case}, "
            f"got {analysis.calc.sub.xi_case}"
        )
    mode, k = parse_probe_mode(probe_mode)
    if rng is None:
        rng = np.random.default_rng(0)
    vfr, hfr = _probe_frames(analysis, theorem_id, mode, k, rng)
    return _evaluate_probes(analysis, theorem_id, vfr, hfr)


def _first_min(slack: np.ndarray) -> int:
    """The row Python's ``min`` picks: the first of the least slacks (-0.0
    ties with 0.0), or row 0 if it is NaN, since nothing compares less than
    a NaN and a NaN compares less than nothing."""
    return 0 if np.isnan(slack[0]) else int(np.argmax(slack == np.nanmin(slack)))


def _tally(slack, holds, equality) -> dict:
    return {
        "checked": int(slack.size),
        "violations": int(np.count_nonzero(~holds)),
        "equalities": int(np.count_nonzero(equality)),
        "min_slack": float(slack[_first_min(slack)]),
    }


def scan_from_records(theorem_id, tables, points_checked) -> TheoremScan:
    """Reduce the per-point tables of one theorem, rows in (point, probe,
    variant) order: counts, the least slack and its point, and for CRH1 the
    same per variant."""
    slack = np.concatenate([t.slack for t in tables])
    holds = np.concatenate([t.holds for t in tables])
    equality = np.concatenate([t.equality for t in tables])
    total = _tally(slack, holds, equality)
    ends = np.cumsum([t.slack.size for t in tables])
    owner = int(np.searchsorted(ends, _first_min(slack), side="right"))
    tallies = None
    if theorem_id == "CRH1":
        variant = np.concatenate([t.variant for t in tables])
        tallies = {}
        for name, _ in CRH1_VARIANTS:
            rows = variant == name
            tallies[name] = _tally(slack[rows], holds[rows], equality[rows])
    return TheoremScan(
        theorem_id=theorem_id,
        points_checked=points_checked,
        records=total["checked"],
        violations=total["violations"],
        equalities=total["equalities"],
        min_slack=total["min_slack"],
        argmin_point=tables[owner].point.copy(),
        variant_tallies=tallies,
        tables=tables,
    )


def scan_theorems(analyses, theorem_ids=None, probe_mode="first", rng=None):
    """Evaluate theorem ids over analyzed sample points; ids default to those
    applicable to the model's Reeb case. Points are the outer loop and ids
    the inner one, so random probes draw from ``rng`` in a fixed order;
    without ``rng``, from one generator seeded with 0 made for the scan.
    Returns {theorem_id: TheoremScan} in id order. An empty list of ids, or
    one that names an id twice, is rejected."""
    if theorem_ids is not None and (
        not theorem_ids or len(set(theorem_ids)) != len(theorem_ids)
    ):
        raise RejectedInputError(
            f"theorem ids must be distinct and at least one, got {list(theorem_ids)}"
        )
    if not analyses:
        raise EmptySampleError("no sample points to scan")
    if rng is None:
        rng = np.random.default_rng(0)
    if theorem_ids is None:
        theorem_ids = applicable_ids(analyses[0].calc.sub.xi_case)
    tables = {tid: [] for tid in theorem_ids}
    for analysis in analyses:
        for tid in theorem_ids:
            tables[tid].append(evaluate_theorem(analysis, tid, probe_mode, rng))
    return {
        tid: scan_from_records(tid, per_point, len(analyses))
        for tid, per_point in tables.items()
    }
