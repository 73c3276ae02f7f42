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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateFrameError, EmptySampleError, RejectedInputError
from .invariants import PointAnalysis, ric_hat_probe, ric_star_probe

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


def _random_probe_frame(frame: np.ndarray, g: np.ndarray, rng) -> np.ndarray:
    k = frame.shape[0]
    coeffs = rng.standard_normal(k)
    while float(np.linalg.norm(coeffs)) < 1e-8:
        coeffs = rng.standard_normal(k)
    coeffs = coeffs / np.linalg.norm(coeffs)
    probe = coeffs @ frame
    rows = [probe]
    for v in frame:
        w = np.asarray(v, dtype=float)
        for u in rows:
            w = w - float(u @ g @ w) * u
        nsq = float(w @ g @ w)
        if nsq < _GS_DROP_SQ:
            continue
        rows.append(w / np.sqrt(nsq))
        if len(rows) == k:
            break
    if len(rows) != k:
        raise DegenerateFrameError("probe completion lost rank")
    return np.array(rows)


def _parse_probe_mode(probe_mode: str):
    if probe_mode in ("first", "all"):
        return probe_mode, 0
    if probe_mode.startswith("random:"):
        tail = probe_mode[len("random:") :]
        try:
            k = int(tail)
        except ValueError:
            raise RejectedInputError(f"bad probe mode: {probe_mode}")
        if k < 1:
            raise RejectedInputError(f"bad probe mode: {probe_mode}")
        return "random", k
    raise RejectedInputError(f"bad probe mode: {probe_mode}")


def _probe_frames(analysis: PointAnalysis, theorem_id, probe_mode, rng):
    """Yield (vertical_frame, horizontal_frame) pairs with the probe vector
    in the first slot of each block that the theorem actually probes."""
    needs_v = theorem_id in _NEEDS_V_PROBE
    needs_h = theorem_id in _NEEDS_H_PROBE
    fr = analysis.calc.frame
    base_v = np.asarray(fr.vert_values, dtype=float)
    base_h = np.asarray(fr.horiz_values, dtype=float)
    if not needs_v and not needs_h:
        return [(base_v, base_h)]
    mode, k = _parse_probe_mode(probe_mode)
    if mode == "first":
        return [(base_v, base_h)]
    if mode == "all":
        vs = range(base_v.shape[0]) if needs_v else [0]
        hs = range(base_h.shape[0]) if needs_h else [0]
        return [(_rotated(base_v, i), _rotated(base_h, j)) for i in vs for j in hs]
    if rng is None:
        rng = np.random.default_rng(0)
    g = analysis.calc.conn.metric.value
    out = []
    for _ in range(k):
        vfr = _random_probe_frame(base_v, g, rng) if needs_v else base_v
        hfr = _random_probe_frame(base_h, g, rng) if needs_h else base_h
        out.append((vfr, hfr))
    return out


def _probe_t_coeff(analysis, vfr, hfr):
    g = analysis.calc.conn.metric.value
    base_v = np.asarray(analysis.calc.frame.vert_values, dtype=float)
    cv = vfr @ g @ base_v.T
    t_chart = np.einsum("ac,bd,cdk->abk", cv, cv, analysis.data.t_uu)
    return t_chart, np.einsum("abk,kl,sl->abs", t_chart, g, hfr)


def _probe_a_coeff(analysis, vfr, hfr):
    g = analysis.calc.conn.metric.value
    base_h = np.asarray(analysis.calc.frame.horiz_values, dtype=float)
    ch = hfr @ g @ base_h.T
    a_chart = np.einsum("su,tv,uvk->stk", ch, ch, analysis.data.a_xx)
    return np.einsum("stk,kl,al->sta", a_chart, g, vfr)


def _c_norm_sq(analysis, x) -> float:
    calc = analysis.calc
    c_part = calc.h_project_values(calc.phi_values @ np.asarray(x, dtype=float))
    return float(calc.pair_values(c_part, c_part))


def _chen_t_defect(tc: np.ndarray) -> float:
    r = tc.shape[0]
    diag_rest = tc[1:, 1:, :].diagonal(axis1=0, axis2=1).sum(axis=1) if r > 1 else 0.0
    worst = float(np.max(np.abs(tc[0, 0, :] - diag_rest)))
    if r > 1:
        worst = max(worst, float(np.max(np.abs(tc[0, 1:, :]))))
    return worst


def _chen_a_defect(ac: np.ndarray) -> float:
    n = ac.shape[0]
    if n <= 1:
        return 0.0
    return float(np.max(np.abs(ac[0, 1:, :])))


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


def _evaluate_pair(analysis: PointAnalysis, theorem_id: str, vfr, hfr):
    pk = analysis.packet
    data = analysis.data
    calc = analysis.calc
    c = pk.c
    q = (c + 3.0) / 4.0
    w = (c - 1.0) / 4.0
    r, n = pk.r, pk.n
    eta = calc.eta_values
    out = []

    if theorem_id == "V1":
        eta_u1 = float(eta @ vfr[0])
        lhs = ric_hat_probe(calc, vfr[0])
        t_chart, tc = _probe_t_coeff(analysis, vfr, hfr)
        g = calc.conn.metric.value
        mean_term = float(t_chart[0, 0] @ g @ data.h_vec)
        rhs = q * (r - 1) - w * ((r - 2) * eta_u1**2 + 1.0) - r * mean_term
        diag = {
            "equality_class": "totally_geodesic",
            "equality_defect": float(np.max(np.abs(data.t_coeff))),
            "dropped_term": float(np.sum(tc[0, :, :] ** 2)),
        }
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "ge", diag))
    elif theorem_id == "V2":
        lhs = 2.0 * pk.tau_hat
        rhs = q * r * (r - 1) - 2.0 * w * (r - 1) - pk.n_norm_sq
        diag = {
            "equality_class": "totally_geodesic",
            "equality_defect": float(np.max(np.abs(data.t_coeff))),
        }
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "ge", diag))
    elif theorem_id == "H1":
        lhs = 2.0 * pk.tau_star
        rhs = q * n * (n - 1) + 3.0 * w * (n + pk.trace_phi_b)
        diag = {
            "equality_class": "integrable",
            "equality_defect": float(np.max(np.abs(data.a_coeff))),
        }
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "le", diag))
    elif theorem_id == "V3":
        lhs = 2.0 * pk.tau_hat
        rhs = q * r * (r - 1) - pk.n_norm_sq
        diag = {
            "equality_class": "totally_geodesic",
            "equality_defect": float(np.max(np.abs(data.t_coeff))),
        }
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "ge", diag))
    elif theorem_id == "H2":
        lhs = 2.0 * pk.tau_star
        rhs = q * n * (n - 1) + w * (3.0 * pk.trace_phi_b + n - 1.0)
        diag = {
            "equality_class": "integrable",
            "equality_defect": float(np.max(np.abs(data.a_coeff))),
        }
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "le", diag))
    elif theorem_id in ("CRV1", "CRV2"):
        eta_u1 = float(eta @ vfr[0])
        lhs = ric_hat_probe(calc, vfr[0])
        if theorem_id == "CRV1":
            rhs = q * (r - 1) - w * ((r - 2) * eta_u1**2 + 1.0) - 0.25 * pk.n_norm_sq
        else:
            rhs = q * (r - 1) - 0.25 * pk.n_norm_sq
        _, tc = _probe_t_coeff(analysis, vfr, hfr)
        diag = {"equality_class": "chen_t", "equality_defect": _chen_t_defect(tc)}
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "ge", diag))
    elif theorem_id == "CRH1":
        lhs = ric_star_probe(calc, hfr[0])
        c1_sq = _c_norm_sq(analysis, hfr[0])
        ac = _probe_a_coeff(analysis, vfr, hfr)
        diag = {"equality_class": "chen_a", "equality_defect": _chen_a_defect(ac)}
        for name, kappa in CRH1_VARIANTS:
            rhs = q * (n - 1) + kappa * (c - 1.0) * c1_sq
            out.append(
                _make_record(theorem_id, name, analysis, vfr, hfr, lhs, rhs, "le", dict(diag))
            )
    elif theorem_id == "CRH2":
        eta_x1 = float(eta @ hfr[0])
        lhs = ric_star_probe(calc, hfr[0])
        c1_sq = _c_norm_sq(analysis, hfr[0])
        rhs = q * (n - 1) + w * ((2.0 - n) * eta_x1**2 - 1.0 + 3.0 * c1_sq)
        ac = _probe_a_coeff(analysis, vfr, hfr)
        diag = {"equality_class": "chen_a", "equality_defect": _chen_a_defect(ac)}
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "le", diag))
    elif theorem_id in ("CMB1", "CMB2"):
        eta_u1 = float(eta @ vfr[0])
        eta_x1 = float(eta @ hfr[0])
        c1_sq = _c_norm_sq(analysis, hfr[0])
        if theorem_id == "CMB1":
            lhs = q * (n * r + n + r - 2) + w * (
                3.0 * r - 4.0 - n - (r - 2) * eta_u1**2 + 3.0 * c1_sq
            )
        else:
            lhs = q * (n * r + n + r - 2) + w * (
                2.0 * r - 4.0 - (n - 2) * eta_x1**2 + 3.0 * c1_sq
            )
        ac = _probe_a_coeff(analysis, vfr, hfr)
        a1s_sq = float(np.sum(ac[0, 1:, :] ** 2)) if n > 1 else 0.0
        rhs = (
            ric_hat_probe(calc, vfr[0])
            + ric_star_probe(calc, hfr[0])
            + 0.25 * pk.n_norm_sq
            + 3.0 * a1s_sq
            - pk.delta_n
            + pk.norm_tv_sq
            - pk.norm_ah_sq
        )
        _, tc = _probe_t_coeff(analysis, vfr, hfr)
        diag = {"equality_class": "chen_t", "equality_defect": _chen_t_defect(tc)}
        out.append(_make_record(theorem_id, None, analysis, vfr, hfr, lhs, rhs, "le", diag))
    else:
        raise RejectedInputError(f"unknown theorem id: {theorem_id}")
    return out


def evaluate_theorem(
    analysis: PointAnalysis, theorem_id: str, probe_mode: str = "first", rng=None
):
    """All records for one theorem at one analyzed point."""
    case = required_xi_case(theorem_id)
    if analysis.calc.sub.xi_case != case:
        raise RejectedInputError(
            f"{theorem_id} needs a model with the Reeb field {case}, "
            f"got {analysis.calc.sub.xi_case}"
        )
    records = []
    for vfr, hfr in _probe_frames(analysis, theorem_id, probe_mode, rng):
        records.extend(_evaluate_pair(analysis, theorem_id, vfr, hfr))
    return records


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
    the inner one, so random probes draw from ``rng`` in a fixed order.
    Returns {theorem_id: TheoremScan} in id order."""
    if not analyses:
        raise EmptySampleError("no sample points to scan")
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
