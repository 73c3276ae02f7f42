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
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateFrameError, EmptySampleError, RejectedInputError
from .invariants import PointAnalysis, ric_hat_probes, ric_star_probes
from .riemannian import float_squares, point_maxima


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


class TheoremTable(NamedTuple):
    """One theorem on a block of points, the point axis leading: a row per
    point and probe, shaped (N, P), and for CRH1 per point, probe and bound
    variant, shaped (N, P, V), named in order by ``variant``. ``slack`` >= 0
    means the bound holds; ``equality`` flags |slack| <= EQUALITY_TOL;
    ``equality_defect`` is the tensor obstruction to equality. The probe
    vectors are (N, P, dim)."""

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


class TheoremScan(NamedTuple):
    theorem_id: str
    points_checked: int
    records: int  # rows over all points
    violations: int
    equalities: int
    min_slack: float
    argmin_point: Optional[np.ndarray]
    variant_tallies: Optional[dict]
    tables: list  # the TheoremTable of each block


def _rotation(k: int, i: int) -> list:
    """The rows of a frame of k rows, row i moved to the front."""
    return [i, *range(i), *range(i + 1, k)]


def _unit_coeffs(rng, k: int, sizes) -> list:
    """k draws of a unit coefficient vector of each length in ``sizes``, one
    array (k, size) per length, from one block of normals in draw order:
    draws outer, ``sizes`` inner. A vector whose norm is below 1e-8 is drawn
    again from the normals after it, as one draw at a time does: its normals
    leave the block, and the generator's next ones join it at the end."""
    edges = np.cumsum([0, *sizes])
    flat = rng.standard_normal(k * edges[-1])
    while True:
        coeffs = np.split(flat.reshape(k, -1), edges[1:-1], axis=1)
        # np.linalg.norm's sqrt(c @ c), one dot product per row
        norms = [np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0]) for c in coeffs]
        short = np.flatnonzero(np.stack(norms, axis=1) < 1e-8)
        if not short.size:
            return [c / norm[:, None] for c, norm in zip(coeffs, norms)]
        row, s = divmod(int(short[0]), len(sizes))
        at = row * edges[-1] + edges[s]
        flat = np.concatenate([flat[:at], flat[at + sizes[s] :], rng.standard_normal(sizes[s])])


def _random_probe_frames(calc, frame: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Orthonormal frames (N, P, k, dim) of the span of each point's
    ``frame`` (N, k, dim): probe p, ``coeffs[:, p] @ frame``, first,
    completed by Gram-Schmidt over the rows of ``frame`` in order, skipping
    a row (numerically) in the span so far. All points and probes run
    together; ``count`` holds each probe's rows so far, and a probe takes no
    part once it has all k."""
    k = coeffs.shape[-1]
    rows = np.zeros(coeffs.shape[:2] + frame.shape[1:])
    rows[:, :, 0] = (coeffs[:, :, None, :] @ frame[:, None])[:, :, 0]
    count = np.ones(coeffs.shape[:2], dtype=int)
    for i in range(k):
        live = count < k
        if not live.any():
            break
        w = np.broadcast_to(frame[:, None, i], rows.shape[:2] + rows.shape[3:])
        for j in range(int(count[live].max())):
            u = rows[:, :, j]
            w = np.where((count > j)[..., None], w - calc.pairings(u, w)[..., None] * u, w)
        nsq = calc.pairings(w, w)
        done = live & ~(nsq < _GS_DROP_SQ)
        rows[done, count[done]] = w[done] / np.sqrt(nsq[done])[:, None]
        count[done] += 1
    if np.any(count != k):
        raise DegenerateFrameError("probe completion lost rank")
    return rows


def parse_probe_mode(probe_mode: str):
    """``(mode, k)`` of a probe mode: ``first``, ``all``, or ``random:<k>``
    with k at least 1, written in ASCII decimal digits without leading
    zeros, so that the mode a report echoes is one per scan (k is 0 for the
    other two)."""
    if probe_mode in ("first", "all"):
        return probe_mode, 0
    m = re.fullmatch(r"random:([1-9][0-9]*)", probe_mode)
    if m is None:
        raise RejectedInputError(f"bad probe mode: {probe_mode}")
    return "random", int(m.group(1))


def parse_theorem_ids(theorem_ids) -> tuple:
    """The ids of ``theorem_ids``, a sequence of ids or their comma-separated
    text (blank entries dropped): each a known id, distinct, at least one."""
    if isinstance(theorem_ids, str):
        ids = tuple(tok.strip() for tok in theorem_ids.split(",") if tok.strip())
    else:
        ids = tuple(theorem_ids)
    for tid in ids:
        required_xi_case(tid)
    if not ids or len(set(ids)) != len(ids):
        raise RejectedInputError(
            f"theorem ids must be distinct and at least one, got {theorem_ids!r}"
        )
    return ids


def _draw_coeffs(sub, points: int, theorem_ids, k: int, rng) -> dict:
    """Each id's random probe coefficients on a sample of ``points`` points
    of ``sub``: per probed frame block, vertical before horizontal, one
    array (points, k, size). They are drawn point by point and, at each
    point, id by id, one ``_unit_coeffs`` call per (point, id), the order of
    one point at a time."""
    sizes = {}
    for tid in theorem_ids:
        entry = _CATALOG[tid]
        probed = ((len(sub.vertical_fields), entry.needs_v),
                  (len(sub.horizontal_fields), entry.needs_h))
        sizes[tid] = [size for size, needed in probed if needed]
    draws = {tid: [] for tid in theorem_ids}
    for _ in range(points):
        for tid in theorem_ids:
            if sizes[tid]:
                draws[tid].append(_unit_coeffs(rng, k, sizes[tid]))
    return {tid: [np.stack(c) for c in zip(*per_point)] for tid, per_point in draws.items()}


def _probe_frames(analysis: PointAnalysis, theorem_id, mode, k, coeffs):
    """The vertical and horizontal frames of every point and probe, stacked
    (N, P, r, dim) and (N, P, n, dim), with the probe vector in the first
    slot of each block that the theorem actually probes; ``coeffs`` are the
    block's rows of this theorem's draws (``_draw_coeffs``). Third, for
    ``first`` and ``all``, the place of each probe's first vertical and
    first horizontal vector in the block's frame, two lists of P indices;
    None for random probes."""
    entry, calc, frame = _CATALOG[theorem_id], analysis.calc, analysis.calc.frame
    blocks = ((frame.vert_values, entry.needs_v), (frame.horiz_values, entry.needs_h))
    if mode != "random" or not (entry.needs_v or entry.needs_h):
        # frame vectors: under all every pair the theorem probes, else the first
        vs = range(calc.r) if mode == "all" and entry.needs_v else [0]
        hs = range(calc.n) if mode == "all" and entry.needs_h else [0]
        pairs = [(i, j) for i in vs for j in hs]
        return (
            frame.vert_values[:, [_rotation(calc.r, i) for i, _ in pairs]],
            frame.horiz_values[:, [_rotation(calc.n, j) for _, j in pairs]],
            ([i for i, _ in pairs], [j for _, j in pairs]),
        )
    coeffs = iter(coeffs)
    return (
        *(
            _random_probe_frames(calc, base, next(coeffs))
            if needed
            else np.repeat(base[:, None], k, axis=1)
            for base, needed in blocks
        ),
        None,
    )


# The probe tables run on a block: z is the point axis and p the probe.
def _probe_t_coeff(analysis, vfr, hfr):
    """Per point and probe: T on the probe's vertical frame in chart
    components (N, P, r, r, dim) and along its horizontal frame
    (N, P, r, r, n)."""
    calc, r = analysis.calc, analysis.calc.r
    g = calc.conn.metric.value
    cv = vfr @ g[:, None] @ np.swapaxes(calc.frame.vert_values, 1, 2)[:, None]
    t_chart = np.einsum("zpac,zpbd,zcdk->zpabk", cv, cv, analysis.data.t_frame[:, :r, :r])
    return t_chart, np.einsum("zpabk,zkl,zpsl->zpabs", t_chart, g, hfr)


def _probe_a_coeff(analysis, vfr, hfr):
    """Per point and probe: A on the probe's horizontal frame along its
    vertical frame (N, P, n, n, r)."""
    calc, r = analysis.calc, analysis.calc.r
    g = calc.conn.metric.value
    ch = hfr @ g[:, None] @ np.swapaxes(calc.frame.horiz_values, 1, 2)[:, None]
    a_chart = np.einsum("zpsu,zptv,zuvk->zpstk", ch, ch, analysis.data.a_frame[:, r:, r:])
    return np.einsum("zpstk,zkl,zpal->zpsta", a_chart, g, vfr)


def _c_norms_sq(calc, xs) -> np.ndarray:
    """|C x|^2 for horizontal vectors ``xs`` (..., dim): the squared length
    of the horizontal part of phi x."""
    c_part = calc.h_project_values(calc.phi_of(xs))
    return calc.pairings(c_part, c_part)


# With one vector in a block, the sums and maxima over the block's other
# vectors are empty and give 0.0, as absolute values that were all 0.0 would.
def _chen_t_defects(tc: np.ndarray) -> np.ndarray:
    diag_rest = tc[..., 1:, 1:, :].diagonal(axis1=-3, axis2=-2).sum(axis=-1)
    worst = np.max(np.abs(tc[..., 0, 0, :] - diag_rest), axis=-1)
    off = np.max(np.abs(tc[..., 0, 1:, :]), axis=(-2, -1), initial=0.0)
    return np.where(off > worst, off, worst)  # Python's max(worst, off)


def _chen_a_defects(ac: np.ndarray) -> np.ndarray:
    return np.max(np.abs(ac[..., 0, 1:, :]), axis=(-2, -1), initial=0.0)


def _evaluate_probes(analysis: PointAnalysis, theorem_id: str, mode, k, coeffs):
    """The table of one theorem on a block for the probes of ``mode``; a
    random mode's are those of ``coeffs``, the block's rows of the draws of
    this id. The probes of ``first`` and ``all`` are frame vectors, whose
    Ricci values are read from ``analysis.ric_hat`` and ``ric_star``.

    Each quantity is computed for all points and probes at once, in the
    float operations of a single probe at a single point, so every row
    equals what one probe at a time gives, bit for bit. A bound without a
    probe has one row per point; a quantity of the point alone gains a
    probe axis of length 1."""
    data, calc = analysis.data, analysis.calc
    c = calc.sub.total.c
    q, w = (c + 3.0) / 4.0, (c - 1.0) / 4.0
    r, n = calc.r, calc.n
    entry = _CATALOG[theorem_id]
    vfr, hfr, slots = _probe_frames(analysis, theorem_id, mode, k, coeffs)
    u1, x1 = vfr[:, :, 0], hfr[:, :, 0]
    # Ric_hat(u1) and Ric_star(x1) where the theorem probes them
    ric_u1 = ric_x1 = None
    if entry.needs_v:
        ric_u1 = ric_hat_probes(calc, u1) if slots is None else analysis.ric_hat[:, slots[0]]
    if entry.needs_h:
        ric_x1 = ric_star_probes(calc, x1) if slots is None else analysis.ric_star[:, slots[1]]
    variant = None
    if theorem_id == "V1":
        eta_sq = float_squares(calc.eta_of(u1))
        lhs = ric_u1
        t_chart = _probe_t_coeff(analysis, vfr, hfr)[0]
        # g(T(u1, u1), H), H = n_vec / r the mean curvature vector of the fibers
        mean_term = calc.pairings(t_chart[:, :, 0, 0], (data.n_vec / r)[:, None])
        rhs = q * (r - 1) - w * ((r - 2) * eta_sq + 1.0) - r * mean_term
        defect = point_maxima(np.abs(data.t_coeff))[:, None]
    elif theorem_id in ("V2", "V3"):
        lhs = 2.0 * analysis.tau_hat[:, None]
        n_norm_sq = data.n_norm_sq[:, None]
        if theorem_id == "V2":
            rhs = q * r * (r - 1) - 2.0 * w * (r - 1) - n_norm_sq
        else:
            rhs = q * r * (r - 1) - n_norm_sq
        defect = point_maxima(np.abs(data.t_coeff))[:, None]
    elif theorem_id in ("H1", "H2"):
        lhs = 2.0 * analysis.tau_star[:, None]
        trace_phi_b = data.trace_phi_b[:, None]
        if theorem_id == "H1":
            rhs = q * n * (n - 1) + 3.0 * w * (n + trace_phi_b)
        else:
            rhs = q * n * (n - 1) + w * (3.0 * trace_phi_b + n - 1.0)
        defect = point_maxima(np.abs(data.a_coeff))[:, None]
    elif theorem_id in ("CRV1", "CRV2"):
        lhs = ric_u1
        n_norm_sq = data.n_norm_sq[:, None]
        if theorem_id == "CRV1":
            eta_sq = float_squares(calc.eta_of(u1))
            rhs = q * (r - 1) - w * ((r - 2) * eta_sq + 1.0) - 0.25 * n_norm_sq
        else:
            rhs = q * (r - 1) - 0.25 * n_norm_sq
        defect = _chen_t_defects(_probe_t_coeff(analysis, vfr, hfr)[1])
    elif theorem_id == "CRH1":
        # rows (point, probe, variant), variants last
        variant = tuple(name for name, _ in CRH1_VARIANTS)
        kappas = np.array([kappa for _, kappa in CRH1_VARIANTS])
        c1_sq = _c_norms_sq(calc, x1)
        lhs = ric_x1[..., None]
        rhs = q * (n - 1) + kappas * (c - 1.0) * c1_sq[..., None]
        defect = _chen_a_defects(_probe_a_coeff(analysis, vfr, hfr))[..., None]
    elif theorem_id == "CRH2":
        eta_sq = float_squares(calc.eta_of(x1))
        lhs = ric_x1
        c1_sq = _c_norms_sq(calc, x1)
        rhs = q * (n - 1) + w * ((2.0 - n) * eta_sq - 1.0 + 3.0 * c1_sq)
        defect = _chen_a_defects(_probe_a_coeff(analysis, vfr, hfr))
    else:  # CMB1, CMB2
        if theorem_id == "CMB1":
            inner = 3.0 * r - 4.0 - n - (r - 2) * float_squares(calc.eta_of(u1))
        else:
            inner = 2.0 * r - 4.0 - (n - 2) * float_squares(calc.eta_of(x1))
        lhs = q * (n * r + n + r - 2) + w * (inner + 3.0 * _c_norms_sq(calc, x1))
        ac = _probe_a_coeff(analysis, vfr, hfr)
        a1s_sq = np.sum(ac[:, :, 0, 1:, :] ** 2, axis=(2, 3))
        rhs = (
            ric_u1
            + ric_x1
            + 0.25 * data.n_norm_sq[:, None]
            + 3.0 * a1s_sq
            - analysis.delta_n[:, None]
            + data.norm_tv_sq[:, None]
            - data.norm_ah_sq[:, None]
        )
        defect = _chen_t_defects(_probe_t_coeff(analysis, vfr, hfr)[1])
    shape = vfr.shape[:2] + ((len(variant),) if variant else ())
    lhs, rhs = np.broadcast_to(lhs, shape), np.broadcast_to(rhs, shape)
    slack = (lhs - rhs) if entry.sense == "ge" else (rhs - lhs)
    return TheoremTable(
        theorem_id=theorem_id,
        point=calc.point,
        variant=variant,
        equality_class=entry.equality_class,
        probe_vertical=u1 if entry.needs_v else None,
        probe_horizontal=x1 if entry.needs_h else None,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=slack >= SLACK_FLOOR,
        equality=np.abs(slack) <= EQUALITY_TOL,
        equality_defect=np.broadcast_to(defect, shape),
    )


def evaluate_theorem(
    analysis: PointAnalysis, theorem_id: str, probe_mode: str = "first", rng=None
) -> TheoremTable:
    """The table of one theorem on a block of analyzed points: that of
    ``scan_theorems`` on this block and id alone, with its draws and
    checks."""
    return scan_theorems([analysis], (theorem_id,), probe_mode, rng)[theorem_id].tables[0]


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
    """Reduce the block tables of one theorem, rows in (point, probe,
    variant) order: counts, the least slack and the point of its row, and
    for CRH1 the same per variant."""
    names = tables[0].variant
    width = len(names) if names else 1

    def rows(field):  # (point and probe, variant)
        return np.concatenate([getattr(t, field).reshape(-1, width) for t in tables])

    slack, holds, equality = rows("slack"), rows("holds"), rows("equality")
    total = _tally(slack.ravel(), holds.ravel(), equality.ravel())
    row_points = np.concatenate([np.repeat(t.point, t.slack[0].size, axis=0) for t in tables])
    tallies = None
    if names:
        tallies = {
            name: _tally(slack[:, j], holds[:, j], equality[:, j])
            for j, name in enumerate(names)
        }
    return TheoremScan(
        theorem_id=theorem_id,
        points_checked=points_checked,
        records=total["checked"],
        violations=total["violations"],
        equalities=total["equalities"],
        min_slack=total["min_slack"],
        argmin_point=row_points[_first_min(slack.ravel())].copy(),
        variant_tallies=tallies,
        tables=tables,
    )


class ScanPlan(NamedTuple):
    """What every block of a scan shares: the ids in order, the probe mode
    and its k, each id's random draws of every point of the sample, as
    ``_draw_coeffs`` gives them (empty unless the mode is random), and the
    random probe rows per point: k when an id probes, else 0."""

    theorem_ids: tuple
    mode: str
    k: int
    draws: dict
    rows: int


def plan_scan(sub, points: int, theorem_ids=None, probe_mode="first", rng=None) -> ScanPlan:
    """The plan of a scan of ``points`` sample points of ``sub``, with every
    random draw (``_draw_coeffs``) from ``rng``, or from a generator seeded
    with 0. Ids default to those of its Reeb case; ids that
    ``parse_theorem_ids`` rejects, or one of the other Reeb case, are
    rejected."""
    ids = applicable_ids(sub.xi_case) if theorem_ids is None else parse_theorem_ids(theorem_ids)
    for tid in ids:
        case = required_xi_case(tid)
        if case != sub.xi_case:
            raise RejectedInputError(
                f"{tid} needs a model with the Reeb field {case}, got {sub.xi_case}"
            )
    mode, k = parse_probe_mode(probe_mode)
    rng = np.random.default_rng(0) if rng is None else rng
    draws = _draw_coeffs(sub, points, ids, k, rng) if mode == "random" else {}
    return ScanPlan(ids, mode, k, draws, k if any(draws.values()) else 0)


def scan_block(analysis: PointAnalysis, plan: ScanPlan, start: int) -> dict:
    """{theorem_id: TheoremTable} of the plan's ids on one block of analyzed
    points, whose first point is point ``start`` of the plan's sample: the
    block reads its rows of the draws."""
    stop = start + len(analysis.calc.point)
    return {
        tid: _evaluate_probes(
            analysis, tid, plan.mode, plan.k, [c[start:stop] for c in plan.draws.get(tid, ())]
        )
        for tid in plan.theorem_ids
    }


def scan_theorems(analyses, theorem_ids=None, probe_mode="first", rng=None):
    """Evaluate theorem ids over blocks of analyzed sample points, each id
    once per block, under ``plan_scan``'s rules. Returns {theorem_id:
    TheoremScan} in id order."""
    if not analyses:
        raise EmptySampleError("no sample points to scan")
    points = sum(len(block.calc.point) for block in analyses)
    plan = plan_scan(analyses[0].calc.sub, points, theorem_ids, probe_mode, rng)
    starts = np.cumsum([0] + [len(block.calc.point) for block in analyses])
    tables = [scan_block(block, plan, start) for block, start in zip(analyses, starts)]
    return {tid: scan_from_records(tid, [t[tid] for t in tables], points)
            for tid in plan.theorem_ids}
