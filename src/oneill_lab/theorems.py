"""Inequality catalog for the block curvature of anti-invariant submersions.

Each entry compares a curvature quantity of one block (a Ricci value on a
unit probe vector, or a block scalar curvature) against a bound built from
the constant phi-sectional-curvature of the total space and the fundamental
tensor norms.  Records carry the signed slack (nonnegative means the bound
holds), an equality flag, and diagnostics for the equality case.

Stable ids: V1, V2, H1 and CRV1, CRH1, CMB1 apply when the Reeb field is
vertical; V3, H2 and CRV2, CRH2, CMB2 when it is horizontal.  Evaluating an
id against a model with the other Reeb position is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFrameError, EmptySampleError, RejectedInputError
from .invariants import PointAnalysis, ric_hat_probes, ric_star_probes

THEOREM_IDS = (
    "V1",
    "V2",
    "H1",
    "V3",
    "H2",
    "CRV1",
    "CRH1",
    "CRV2",
    "CRH2",
    "CMB1",
    "CMB2",
)

_VERTICAL_IDS = frozenset({"V1", "V2", "H1", "CRV1", "CRH1", "CMB1"})
_HORIZONTAL_IDS = frozenset({"V3", "H2", "CRV2", "CRH2", "CMB2"})

_NEEDS_V_PROBE = frozenset({"V1", "CRV1", "CRV2", "CMB1", "CMB2"})
_NEEDS_H_PROBE = frozenset({"CRH1", "CRH2", "CMB1", "CMB2"})

# bound variants for the horizontal Ricci estimate: coefficient of
# (c - 1) * |CX|^2 on the right-hand side
CRH1_VARIANTS = (("kappa=3/4", 0.75), ("kappa=3/8", 0.375))

EQUALITY_TOL = 1e-9
SLACK_FLOOR = -1e-9

_GS_DROP_SQ = 1e-12


def required_xi_case(theorem_id: str) -> str:
    if theorem_id in _VERTICAL_IDS:
        return "vertical"
    if theorem_id in _HORIZONTAL_IDS:
        return "horizontal"
    raise RejectedInputError(f"unknown theorem id: {theorem_id}")


def applicable_ids(xi_case: str):
    return tuple(t for t in THEOREM_IDS if required_xi_case(t) == xi_case)


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated inequality at one point and probe choice.

    ``slack`` is oriented so that nonnegative always means the bound holds;
    ``equality`` flags |slack| within EQUALITY_TOL.  ``diagnostics`` carries
    the equality-class label and the size of the tensor obstruction that
    must vanish for equality."""

    theorem_id: str
    variant: Optional[str]
    point: np.ndarray
    probe_vertical: Optional[np.ndarray]
    probe_horizontal: Optional[np.ndarray]
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    diagnostics: dict


@dataclass
class TheoremScan:
    theorem_id: str
    points_checked: int
    records: list
    violations: int
    equalities: int
    min_slack: float
    argmin_point: Optional[np.ndarray]
    variant_tallies: Optional[dict]


def _rotated(frame: np.ndarray, i: int) -> np.ndarray:
    if i == 0:
        return frame
    return np.vstack([frame[i : i + 1], frame[:i], frame[i + 1 :]])


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
    needs_v = theorem_id in _NEEDS_V_PROBE
    needs_h = theorem_id in _NEEDS_H_PROBE
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
    if needs_v:
        vfr = _random_probe_frames(calc, base_v, np.array(coeffs_v))
    else:
        vfr = np.repeat(base_v[None], k, axis=0)
    if needs_h:
        hfr = _random_probe_frames(calc, base_h, np.array(coeffs_h))
    else:
        hfr = np.repeat(base_h[None], k, axis=0)
    return vfr, hfr


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


def _c_norms_sq(analysis, xs) -> list:
    """|C x|^2 for horizontal vectors ``xs`` (P, dim): the squared length of
    the horizontal part of phi x."""
    calc = analysis.calc
    c_part = calc.h_project_values(calc.phi_of(xs))
    return calc.pairings(c_part, c_part).tolist()


def _chen_t_defects(tc: np.ndarray) -> list:
    r = tc.shape[1]
    if r > 1:
        diag_rest = tc[:, 1:, 1:, :].diagonal(axis1=1, axis2=2).sum(axis=2)
    else:
        diag_rest = 0.0
    worst = np.max(np.abs(tc[:, 0, 0, :] - diag_rest), axis=1)
    if r > 1:
        off = np.max(np.abs(tc[:, 0, 1:, :]), axis=(1, 2))
        worst = np.where(off > worst, off, worst)  # Python's max(worst, off)
    return worst.tolist()


def _chen_a_defects(ac: np.ndarray) -> list:
    n = ac.shape[1]
    if n <= 1:
        return [0.0] * ac.shape[0]
    return np.max(np.abs(ac[:, 0, 1:, :]), axis=(1, 2)).tolist()


def _make_record(theorem_id, variant, analysis, vfr, hfr, lhs, rhs, sense, diagnostics):
    slack = (lhs - rhs) if sense == "ge" else (rhs - lhs)
    needs_v = theorem_id in _NEEDS_V_PROBE
    needs_h = theorem_id in _NEEDS_H_PROBE
    return InequalityRecord(
        theorem_id=theorem_id,
        variant=variant,
        point=analysis.packet.point.copy(),
        probe_vertical=vfr[0].copy() if needs_v else None,
        probe_horizontal=hfr[0].copy() if needs_h else None,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=bool(slack >= SLACK_FLOOR),
        equality=bool(abs(slack) <= EQUALITY_TOL),
        diagnostics=diagnostics,
    )


def _evaluate_probes(analysis: PointAnalysis, theorem_id: str, vfr, hfr):
    """The records of one theorem for all probe frames of one point.

    Each quantity is computed for all probes at once, in the float
    operations of a single probe; the scalar formulas then run per probe in
    Python floats, so the records equal those of one probe at a time, bit
    for bit."""
    pk = analysis.packet
    data = analysis.data
    calc = analysis.calc
    c = pk.c
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    r, n = pk.r, pk.n
    out = []

    def emit(p, variant, lhs, rhs, sense, diag):
        record = _make_record(
            theorem_id, variant, analysis, vfr[p], hfr[p], lhs, rhs, sense, diag
        )
        out.append(record)

    u1, x1 = vfr[:, 0], hfr[:, 0]
    if theorem_id == "V1":
        eta_u1 = calc.eta_of(u1).tolist()
        lhs = ric_hat_probes(calc, u1).tolist()
        t_chart, tc = _probe_t_coeff(analysis, vfr, hfr)
        mean_term = calc.pairings(t_chart[:, 0, 0], data.h_vec).tolist()
        defect = float(np.max(np.abs(data.t_coeff)))
        dropped = np.sum(tc[:, 0, :, :] ** 2, axis=(1, 2)).tolist()
        for p, e in enumerate(eta_u1):
            rhs = q * (r - 1) - w * ((r - 2) * e**2 + 1.0) - r * mean_term[p]
            diag = {
                "equality_class": "totally_geodesic",
                "equality_defect": defect,
                "dropped_term": dropped[p],
            }
            emit(p, None, lhs[p], rhs, "ge", diag)
    elif theorem_id == "V2":
        lhs = 2.0 * pk.tau_hat
        rhs = q * r * (r - 1) - 2.0 * w * (r - 1) - pk.n_norm_sq
        diag = {
            "equality_class": "totally_geodesic",
            "equality_defect": float(np.max(np.abs(data.t_coeff))),
        }
        emit(0, None, lhs, rhs, "ge", diag)
    elif theorem_id == "H1":
        lhs = 2.0 * pk.tau_star
        rhs = q * n * (n - 1) + 3.0 * w * (n + pk.trace_phi_b)
        diag = {
            "equality_class": "integrable",
            "equality_defect": float(np.max(np.abs(data.a_coeff))),
        }
        emit(0, None, lhs, rhs, "le", diag)
    elif theorem_id == "V3":
        lhs = 2.0 * pk.tau_hat
        rhs = q * r * (r - 1) - pk.n_norm_sq
        diag = {
            "equality_class": "totally_geodesic",
            "equality_defect": float(np.max(np.abs(data.t_coeff))),
        }
        emit(0, None, lhs, rhs, "ge", diag)
    elif theorem_id == "H2":
        lhs = 2.0 * pk.tau_star
        rhs = q * n * (n - 1) + w * (3.0 * pk.trace_phi_b + n - 1.0)
        diag = {
            "equality_class": "integrable",
            "equality_defect": float(np.max(np.abs(data.a_coeff))),
        }
        emit(0, None, lhs, rhs, "le", diag)
    elif theorem_id in ("CRV1", "CRV2"):
        eta_u1 = calc.eta_of(u1).tolist()
        lhs = ric_hat_probes(calc, u1).tolist()
        _, tc = _probe_t_coeff(analysis, vfr, hfr)
        defects = _chen_t_defects(tc)
        for p, e in enumerate(eta_u1):
            if theorem_id == "CRV1":
                rhs = q * (r - 1) - w * ((r - 2) * e**2 + 1.0) - 0.25 * pk.n_norm_sq
            else:
                rhs = q * (r - 1) - 0.25 * pk.n_norm_sq
            diag = {"equality_class": "chen_t", "equality_defect": defects[p]}
            emit(p, None, lhs[p], rhs, "ge", diag)
    elif theorem_id == "CRH1":
        lhs = ric_star_probes(calc, x1).tolist()
        c1_sq = _c_norms_sq(analysis, x1)
        defects = _chen_a_defects(_probe_a_coeff(analysis, vfr, hfr))
        for p, c1 in enumerate(c1_sq):
            diag = {"equality_class": "chen_a", "equality_defect": defects[p]}
            for name, kappa in CRH1_VARIANTS:
                rhs = q * (n - 1) + kappa * (c - 1.0) * c1
                emit(p, name, lhs[p], rhs, "le", dict(diag))
    elif theorem_id == "CRH2":
        eta_x1 = calc.eta_of(x1).tolist()
        lhs = ric_star_probes(calc, x1).tolist()
        c1_sq = _c_norms_sq(analysis, x1)
        defects = _chen_a_defects(_probe_a_coeff(analysis, vfr, hfr))
        for p, e in enumerate(eta_x1):
            rhs = q * (n - 1) + w * ((2.0 - n) * e**2 - 1.0 + 3.0 * c1_sq[p])
            diag = {"equality_class": "chen_a", "equality_defect": defects[p]}
            emit(p, None, lhs[p], rhs, "le", diag)
    elif theorem_id in ("CMB1", "CMB2"):
        eta_u1 = calc.eta_of(u1).tolist()
        eta_x1 = calc.eta_of(x1).tolist()
        c1_sq = _c_norms_sq(analysis, x1)
        ac = _probe_a_coeff(analysis, vfr, hfr)
        if n > 1:
            a1s_sq = np.sum(ac[:, 0, 1:, :] ** 2, axis=(1, 2)).tolist()
        else:
            a1s_sq = [0.0] * len(eta_u1)
        ric_hat = ric_hat_probes(calc, u1).tolist()
        ric_star = ric_star_probes(calc, x1).tolist()
        _, tc = _probe_t_coeff(analysis, vfr, hfr)
        defects = _chen_t_defects(tc)
        for p, (eu, ex, c1) in enumerate(zip(eta_u1, eta_x1, c1_sq)):
            if theorem_id == "CMB1":
                lhs = q * (n * r + n + r - 2) + w * (
                    3.0 * r - 4.0 - n - (r - 2) * eu**2 + 3.0 * c1
                )
            else:
                lhs = q * (n * r + n + r - 2) + w * (
                    2.0 * r - 4.0 - (n - 2) * ex**2 + 3.0 * c1
                )
            rhs = (
                ric_hat[p]
                + ric_star[p]
                + 0.25 * pk.n_norm_sq
                + 3.0 * a1s_sq[p]
                - pk.delta_n
                + pk.norm_tv_sq
                - pk.norm_ah_sq
            )
            diag = {"equality_class": "chen_t", "equality_defect": defects[p]}
            emit(p, None, lhs, rhs, "le", diag)
    else:
        raise RejectedInputError(f"unknown theorem id: {theorem_id}")
    return out


def evaluate_theorem(
    analysis: PointAnalysis, theorem_id: str, probe_mode: str = "first", rng=None
):
    """All records for one theorem at one analyzed point. Random probes
    draw from ``rng``, or from a generator seeded with 0 made for this
    call."""
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


def scan_from_records(theorem_id, records, points_checked) -> TheoremScan:
    violations = sum(1 for rec in records if not rec.holds)
    equalities = sum(1 for rec in records if rec.equality)
    worst = min(records, key=lambda rec: rec.slack)
    tallies = None
    if theorem_id == "CRH1":
        tallies = {}
        for name, _ in CRH1_VARIANTS:
            sub_recs = [rec for rec in records if rec.variant == name]
            tallies[name] = {
                "checked": len(sub_recs),
                "violations": sum(1 for rec in sub_recs if not rec.holds),
                "equalities": sum(1 for rec in sub_recs if rec.equality),
                "min_slack": min(rec.slack for rec in sub_recs),
            }
    return TheoremScan(
        theorem_id=theorem_id,
        points_checked=points_checked,
        records=records,
        violations=violations,
        equalities=equalities,
        min_slack=worst.slack,
        argmin_point=worst.point.copy(),
        variant_tallies=tallies,
    )


def scan_theorems(analyses, theorem_ids=None, probe_mode="first", rng=None):
    """Evaluate theorem ids over analyzed sample points; ids default to those
    applicable to the model's Reeb case. Points are the outer loop and ids
    the inner one, so random probes draw from ``rng`` in a fixed order;
    without ``rng``, from one generator seeded with 0 made for the scan.
    Returns {theorem_id: TheoremScan} in id order."""
    if not analyses:
        raise EmptySampleError("no sample points to scan")
    if rng is None:
        rng = np.random.default_rng(0)
    if theorem_ids is None:
        theorem_ids = applicable_ids(analyses[0].calc.sub.xi_case)
    buckets = {tid: [] for tid in theorem_ids}
    for analysis in analyses:
        for tid in theorem_ids:
            buckets[tid].extend(evaluate_theorem(analysis, tid, probe_mode, rng))
    return {
        tid: scan_from_records(tid, records, len(analyses))
        for tid, records in buckets.items()
    }
