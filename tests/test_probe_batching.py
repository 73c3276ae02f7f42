"""Batched probes and frame tables against the per-vector formulas.

The theorem scans evaluate all probes of a point as one batch, and the
block curvatures and identity residuals read the curvature on frame
4-tuples from tables. Each float operation keeps its order and association,
so every record must equal, bit for bit, what the per-vector formulas below
give: ``pair_r4`` on one tuple of vectors, ``t_point``/``a_point`` on one
pair, ``float(x @ g @ y)`` for the metric pairing, one Gram-Schmidt
completion per random probe, and running sums added one term at a time
from 0.0. Theorem argmins are picked among slacks that differ only by
rounding, so nothing weaker than bitwise equality pins the reports.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oneill_lab.cli import resolve_model
from oneill_lab.invariants import analyze_point
from oneill_lab.riemannian import pair_r4, scalar_curvature
from oneill_lab.sampling import SampleConfig, sample_submersion_points
from oneill_lab.submersion import load_custom_model, verify_structure_lemmas
from oneill_lab.theorems import (
    CRH1_VARIANTS,
    EQUALITY_TOL,
    SLACK_FLOOR,
    _c_norms_sq,
    _random_probe_frames,
    applicable_ids,
    evaluate_theorem,
)

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")
MODELS = ("vertical-xi", "horizontal-xi", "reeb_fiber")

_NEEDS_V = frozenset({"V1", "CRV1", "CRV2", "CMB1", "CMB2"})
_NEEDS_H = frozenset({"CRH1", "CRH2", "CMB1", "CMB2"})


def _model(name):
    if name == "reeb_fiber":
        return load_custom_model(os.path.join(MODELS_DIR, "reeb_fiber.json"))
    return resolve_model(name)


def _analyses(name, points, seed):
    sub = _model(name)
    pts = sample_submersion_points(sub, SampleConfig(points=points, seed=seed))
    return [analyze_point(sub, pt) for pt in pts]


@pytest.fixture(scope="module")
def analyses():
    """Three seed-42 sample points of each model, analyzed."""
    return {name: _analyses(name, 3, 42) for name in MODELS}


def bits(x) -> bytes:
    """The bytes of a float or array: tells -0.0 from 0.0 and NaN payloads."""
    return np.asarray(x, dtype=float).tobytes()


def _r4(t, x, y, z, w) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", t, x, y, z, w))


def _seq_sum(values) -> float:
    # Python's sum() on Python 3.11; from 3.12 on, sum() of floats
    # compensates rounding, which the engine never did
    total = 0.0
    for value in values:
        total += value
    return total


class PerVector:
    """The per-vector formulas on one analyzed point: each value from one
    tuple or pair of vectors, as the engine computed them before batching."""

    def __init__(self, analysis):
        calc = analysis.calc
        self.analysis = analysis
        self.calc = calc
        self.g = calc.conn.metric.value
        self.r4 = calc.curvature.r4
        self.closed = calc.closed_curvature
        self.uv = calc.frame.vert_values
        self.xv = calc.frame.horiz_values
        self.decomp = np.array(calc.frame.jets.value, dtype=float) @ self.g
        self.t_tab, self.a_tab = calc._tensor_tables

    def pair(self, x, y) -> float:
        return float(np.asarray(x) @ self.g @ np.asarray(y))

    def t(self, e, f):
        ce = self.decomp @ np.array(e, dtype=float)
        cf = self.decomp @ np.array(f, dtype=float)
        return np.einsum("i,j,ijk->k", ce, cf, self.t_tab)

    def a(self, e, f):
        ce = self.decomp @ np.array(e, dtype=float)
        cf = self.decomp @ np.array(f, dtype=float)
        return np.einsum("i,j,ijk->k", ce, cf, self.a_tab)

    def hat(self, u, v, f, w) -> float:
        amb = _r4(self.r4, u, v, f, w)
        return amb - self.pair(self.t(u, w), self.t(v, f)) + self.pair(
            self.t(v, w), self.t(u, f)
        )

    def star(self, x, y, z, h) -> float:
        amb = _r4(self.r4, x, y, z, h)
        return (
            amb
            + 2.0 * self.pair(self.a(x, y), self.a(z, h))
            - self.pair(self.a(y, z), self.a(x, h))
            + self.pair(self.a(x, z), self.a(y, h))
        )

    def ric_hat(self, u) -> float:
        return _seq_sum(self.hat(wb, u, u, wb) for wb in self.uv)

    def ric_star(self, x) -> float:
        return _seq_sum(self.star(xt, x, x, xt) for xt in self.xv)

    def v_project(self, wv):
        coeffs = self.uv @ (self.g @ np.asarray(wv))
        return coeffs @ self.uv

    def h_project(self, wv):
        coeffs = self.xv @ (self.g @ np.asarray(wv))
        return coeffs @ self.xv

    def cov(self, x, y):
        return np.array(y.gradient) @ x + np.einsum(
            "kij,i,j->k", self.calc.conn.gamma, x, np.array(y.value)
        )

    def nabla_t(self, e, k, l):
        t_fields, _ = self.calc._exchange_fields
        jets = self.calc.frame.jets
        main = self.cov(e, t_fields[k, l])
        c1 = self.t(self.cov(e, jets[k]), self.uv[l])
        c2 = self.t(self.uv[k], self.cov(e, jets[l]))
        return main - c1 - c2

    def nabla_a(self, e, i, j):
        _, a_fields = self.calc._exchange_fields
        jets, r = self.calc.frame.jets, len(self.uv)
        main = self.cov(e, a_fields[i, j])
        c1 = self.a(self.cov(e, jets[r + i]), self.xv[j])
        c2 = self.a(self.xv[i], self.cov(e, jets[r + j]))
        return main - c1 - c2

    def delta_n(self) -> float:
        return _seq_sum(
            self.pair(self.nabla_t(xs, k, k), xs)
            for xs in self.xv
            for k in range(len(self.uv))
        )

    def tensor_tables(self):
        """T and A on all frame pairs, one covariant derivative each."""
        d, r = len(self.decomp), len(self.uv)
        jets = self.calc.frame.jets
        vals = [np.array(row, dtype=float) for row in jets.value]
        t_tab = np.zeros((d, d, d))
        a_tab = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                nab = self.cov(vals[i], jets[j])
                if i < r:
                    t_tab[i, j] = self.h_project(nab) if j < r else self.v_project(nab)
                else:
                    a_tab[i, j] = self.v_project(nab) if j >= r else self.h_project(nab)
        return t_tab, a_tab

    def tensors(self) -> dict:
        """The fields of ``tensors_from_calculus`` that the frames feed."""
        uv, xv, phi = self.uv, self.xv, self.calc.phi_values
        r, n = len(uv), len(xv)
        t_uu = np.array([[self.t(uv[a], uv[b]) for b in range(r)] for a in range(r)])
        a_xx = np.array([[self.a(xv[s], xv[t]) for t in range(n)] for s in range(n)])
        t_coeff = np.zeros((r, r, n))
        for a in range(r):
            for b in range(r):
                for s in range(n):
                    t_coeff[a, b, s] = self.pair(t_uu[a][b], xv[s])
        a_coeff = np.zeros((n, n, r))
        for s in range(n):
            for t in range(n):
                for a in range(r):
                    a_coeff[s, t, a] = self.pair(a_xx[s][t], uv[a])
        norm_tv_sq = _seq_sum(
            self.pair(self.t(uv[a], xv[s]), self.t(uv[a], xv[s]))
            for a in range(r)
            for s in range(n)
        )
        norm_ah_sq = _seq_sum(
            self.pair(self.a(xv[s], uv[a]), self.a(xv[s], uv[a]))
            for s in range(n)
            for a in range(r)
        )
        n_vec = np.zeros(len(self.decomp))
        for a in range(r):
            n_vec = n_vec + t_uu[a][a]
        trace_phi_b = 0.0
        c_norms_sq = np.zeros(n)
        for s in range(n):
            phix = phi @ xv[s]
            trace_phi_b += self.pair(phi @ self.v_project(phix), xv[s])
            c_part = self.h_project(phix)
            c_norms_sq[s] = self.pair(c_part, c_part)
        return {
            "t_uu": t_uu,
            "a_xx": a_xx,
            "t_coeff": t_coeff,
            "a_coeff": a_coeff,
            "sum_t_sq": float(np.sum(t_coeff**2)),
            "sum_a_sq": float(np.sum(a_coeff**2)),
            "norm_tv_sq": norm_tv_sq,
            "norm_ah_sq": norm_ah_sq,
            "n_vec": n_vec,
            "trace_phi_b": trace_phi_b,
            "c_norms_sq": c_norms_sq,
        }

    def skew_and_anti_invariance(self) -> dict:
        frame = list(self.uv) + list(self.xv)
        m, phi = len(frame), self.calc.phi_values
        out = {}
        for key, tensor in (("skew_t", self.t), ("skew_a", self.a)):
            img = [[tensor(e, f) for f in frame] for e in frame]
            out[key] = max(
                abs(self.pair(img[e][f], frame[g]) + self.pair(frame[f], img[e][g]))
                for e in range(m)
                for f in range(m)
                for g in range(m)
            )
        out["anti_invariance"] = max(
            abs(self.pair(phi @ a, b)) for a in self.uv for b in self.uv
        )
        return out

    # ---- block curvatures and identity residuals ----

    def hat_star_tables(self):
        r, n = len(self.uv), len(self.xv)
        hat = np.zeros((r, r))
        for j in range(r):
            for k in range(r):
                if j != k:
                    hat[j, k] = self.hat(self.uv[j], self.uv[k], self.uv[k], self.uv[j])
        star = np.zeros((n, n))
        for s in range(n):
            for t in range(n):
                if s != t:
                    star[s, t] = self.star(
                        self.xv[s], self.xv[t], self.xv[t], self.xv[s]
                    )
        return hat, star

    def four_block(self) -> float:
        uv, xv, total = self.uv, self.xv, 0.0
        for j in range(len(uv)):
            for k in range(len(uv)):
                total += _r4(self.r4, uv[j], uv[k], uv[k], uv[j])
        for i in range(len(xv)):
            for k in range(len(uv)):
                total += _r4(self.r4, xv[i], uv[k], uv[k], xv[i])
        for i in range(len(xv)):
            for s in range(len(xv)):
                total += _r4(self.r4, xv[i], xv[s], xv[s], xv[i])
        for s in range(len(xv)):
            for j in range(len(uv)):
                total += _r4(self.r4, uv[j], xv[s], xv[s], uv[j])
        return total

    def r1(self) -> float:
        uv, r = self.uv, len(self.uv)
        t_uu = [[self.t(uv[a], uv[b]) for b in range(r)] for a in range(r)]
        diffs = []
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    for d in range(r):
                        corr = -self.pair(t_uu[a][d], t_uu[b][c]) + self.pair(
                            t_uu[b][d], t_uu[a][c]
                        )
                        tup = (uv[a], uv[b], uv[c], uv[d])
                        via_ad = _r4(self.r4, *tup) + corr
                        via_closed = _r4(self.closed, *tup) + corr
                        diffs.append(abs(via_ad - via_closed))
        return max(diffs)

    def r2(self) -> float:
        xv, n = self.xv, len(self.xv)
        a_xx = [[self.a(xv[s], xv[t]) for t in range(n)] for s in range(n)]
        diffs = []
        for s in range(n):
            for t in range(n):
                for u in range(n):
                    for v in range(n):
                        corr = (
                            2.0 * self.pair(a_xx[s][t], a_xx[u][v])
                            - self.pair(a_xx[t][u], a_xx[s][v])
                            + self.pair(a_xx[s][u], a_xx[t][v])
                        )
                        tup = (xv[s], xv[t], xv[u], xv[v])
                        via_ad = _r4(self.r4, *tup) + corr
                        via_closed = _r4(self.closed, *tup) + corr
                        diffs.append(abs(via_ad - via_closed))
        return max(diffs)

    def gauss3(self) -> float:
        uv, xv = self.uv, self.xv
        r, n = len(uv), len(xv)
        t_mixed = [[self.t(uv[k], xv[i]) for i in range(n)] for k in range(r)]
        a_mixed = [[self.a(xv[i], uv[k]) for k in range(r)] for i in range(n)]
        diffs = []
        for i in range(n):
            for k in range(r):
                for j in range(n):
                    for l in range(r):
                        lhs = _r4(self.r4, uv[k], xv[i], xv[j], uv[l])
                        rhs = (
                            self.pair(self.nabla_t(xv[i], k, l), xv[j])
                            + self.pair(self.nabla_a(uv[k], i, j), uv[l])
                            - self.pair(t_mixed[k][i], t_mixed[l][j])
                            + self.pair(a_mixed[j][l], a_mixed[i][k])
                        )
                        diffs.append(abs(lhs - rhs))
        return max(diffs)

    # ---- theorem records ----

    def random_probe_frame(self, frame, rng):
        k = frame.shape[0]
        coeffs = rng.standard_normal(k)
        while float(np.linalg.norm(coeffs)) < 1e-8:
            coeffs = rng.standard_normal(k)
        return self.complete(frame, coeffs / np.linalg.norm(coeffs))

    def complete(self, frame, coeffs):
        """Gram-Schmidt completion of the probe coeffs @ frame."""
        k = frame.shape[0]
        rows = [coeffs @ frame]
        for v in frame:
            w = np.asarray(v, dtype=float)
            for u in rows:
                w = w - float(u @ self.g @ w) * u
            nsq = float(w @ self.g @ w)
            if nsq < 1e-12:
                continue
            rows.append(w / np.sqrt(nsq))
            if len(rows) == k:
                break
        assert len(rows) == k
        return np.array(rows)

    def probe_frames(self, tid, mode, rng):
        base_v = np.asarray(self.uv, dtype=float)
        base_h = np.asarray(self.xv, dtype=float)
        needs_v, needs_h = tid in _NEEDS_V, tid in _NEEDS_H
        if (not needs_v and not needs_h) or mode == "first":
            return [(base_v, base_h)]
        if mode == "all":

            def rotated(frame, i):
                return np.vstack([frame[i : i + 1], frame[:i], frame[i + 1 :]])

            vs = range(len(base_v)) if needs_v else [0]
            hs = range(len(base_h)) if needs_h else [0]
            return [(rotated(base_v, i), rotated(base_h, j)) for i in vs for j in hs]
        k = int(mode.split(":")[1])
        out = []
        for _ in range(k):
            vfr = self.random_probe_frame(base_v, rng) if needs_v else base_v
            hfr = self.random_probe_frame(base_h, rng) if needs_h else base_h
            out.append((vfr, hfr))
        return out

    def t_coeff(self, vfr, hfr):
        cv = vfr @ self.g @ np.asarray(self.uv, dtype=float).T
        t_chart = np.einsum("ac,bd,cdk->abk", cv, cv, self.analysis.data.t_uu)
        return t_chart, np.einsum("abk,kl,sl->abs", t_chart, self.g, hfr)

    def a_coeff(self, vfr, hfr):
        ch = hfr @ self.g @ np.asarray(self.xv, dtype=float).T
        a_chart = np.einsum("su,tv,uvk->stk", ch, ch, self.analysis.data.a_xx)
        return np.einsum("stk,kl,al->sta", a_chart, self.g, vfr)

    def c_norm_sq(self, x) -> float:
        c_part = self.h_project(self.calc.phi_values @ np.asarray(x, dtype=float))
        return float(self.pair(c_part, c_part))

    @staticmethod
    def chen_t_defect(tc) -> float:
        r = tc.shape[0]
        rest = tc[1:, 1:, :].diagonal(axis1=0, axis2=1).sum(axis=1) if r > 1 else 0.0
        worst = float(np.max(np.abs(tc[0, 0, :] - rest)))
        if r > 1:
            worst = max(worst, float(np.max(np.abs(tc[0, 1:, :]))))
        return worst

    @staticmethod
    def chen_a_defect(ac) -> float:
        if ac.shape[0] <= 1:
            return 0.0
        return float(np.max(np.abs(ac[0, 1:, :])))

    def records(self, tid, mode, rng):
        """(variant, lhs, rhs, slack, holds, equality, diagnostics, probes)
        per record, in the order the engine emits them."""
        an, data, calc = self.analysis, self.analysis.data, self.calc
        c = float(calc.sub.total.c)
        q, w = (c + 3.0) / 4.0, (c - 1.0) / 4.0
        r, n, eta = len(self.uv), len(self.xv), calc.eta_values
        out = []

        def emit(variant, vfr, hfr, lhs, rhs, sense, diag):
            slack = (lhs - rhs) if sense == "ge" else (rhs - lhs)
            probes = (
                vfr[0] if tid in _NEEDS_V else None,
                hfr[0] if tid in _NEEDS_H else None,
            )
            out.append(
                (
                    variant,
                    float(lhs),
                    float(rhs),
                    float(slack),
                    bool(slack >= SLACK_FLOOR),
                    bool(abs(slack) <= EQUALITY_TOL),
                    diag,
                    probes,
                )
            )

        for vfr, hfr in self.probe_frames(tid, mode, rng):
            if tid == "V1":
                eta_u1 = float(eta @ vfr[0])
                lhs = self.ric_hat(vfr[0])
                t_chart, tc = self.t_coeff(vfr, hfr)
                mean_term = float(t_chart[0, 0] @ self.g @ data.h_vec)
                rhs = q * (r - 1) - w * ((r - 2) * eta_u1**2 + 1.0) - r * mean_term
                diag = {
                    "equality_class": "totally_geodesic",
                    "equality_defect": float(np.max(np.abs(data.t_coeff))),
                    "dropped_term": float(np.sum(tc[0, :, :] ** 2)),
                }
                emit(None, vfr, hfr, lhs, rhs, "ge", diag)
            elif tid in ("V2", "V3"):
                lhs = 2.0 * an.tau_hat
                rhs = q * r * (r - 1) - data.n_norm_sq
                if tid == "V2":
                    rhs = q * r * (r - 1) - 2.0 * w * (r - 1) - data.n_norm_sq
                diag = {
                    "equality_class": "totally_geodesic",
                    "equality_defect": float(np.max(np.abs(data.t_coeff))),
                }
                emit(None, vfr, hfr, lhs, rhs, "ge", diag)
            elif tid in ("H1", "H2"):
                lhs = 2.0 * an.tau_star
                if tid == "H1":
                    rhs = q * n * (n - 1) + 3.0 * w * (n + data.trace_phi_b)
                else:
                    rhs = q * n * (n - 1) + w * (3.0 * data.trace_phi_b + n - 1.0)
                diag = {
                    "equality_class": "integrable",
                    "equality_defect": float(np.max(np.abs(data.a_coeff))),
                }
                emit(None, vfr, hfr, lhs, rhs, "le", diag)
            elif tid in ("CRV1", "CRV2"):
                eta_u1 = float(eta @ vfr[0])
                lhs = self.ric_hat(vfr[0])
                if tid == "CRV1":
                    rhs = (
                        q * (r - 1)
                        - w * ((r - 2) * eta_u1**2 + 1.0)
                        - 0.25 * data.n_norm_sq
                    )
                else:
                    rhs = q * (r - 1) - 0.25 * data.n_norm_sq
                _, tc = self.t_coeff(vfr, hfr)
                diag = {
                    "equality_class": "chen_t",
                    "equality_defect": self.chen_t_defect(tc),
                }
                emit(None, vfr, hfr, lhs, rhs, "ge", diag)
            elif tid == "CRH1":
                lhs = self.ric_star(hfr[0])
                c1_sq = self.c_norm_sq(hfr[0])
                ac = self.a_coeff(vfr, hfr)
                diag = {
                    "equality_class": "chen_a",
                    "equality_defect": self.chen_a_defect(ac),
                }
                for name, kappa in CRH1_VARIANTS:
                    rhs = q * (n - 1) + kappa * (c - 1.0) * c1_sq
                    emit(name, vfr, hfr, lhs, rhs, "le", dict(diag))
            elif tid == "CRH2":
                eta_x1 = float(eta @ hfr[0])
                lhs = self.ric_star(hfr[0])
                c1_sq = self.c_norm_sq(hfr[0])
                rhs = q * (n - 1) + w * ((2.0 - n) * eta_x1**2 - 1.0 + 3.0 * c1_sq)
                ac = self.a_coeff(vfr, hfr)
                diag = {
                    "equality_class": "chen_a",
                    "equality_defect": self.chen_a_defect(ac),
                }
                emit(None, vfr, hfr, lhs, rhs, "le", diag)
            else:  # CMB1, CMB2
                eta_u1 = float(eta @ vfr[0])
                eta_x1 = float(eta @ hfr[0])
                c1_sq = self.c_norm_sq(hfr[0])
                if tid == "CMB1":
                    lhs = q * (n * r + n + r - 2) + w * (
                        3.0 * r - 4.0 - n - (r - 2) * eta_u1**2 + 3.0 * c1_sq
                    )
                else:
                    lhs = q * (n * r + n + r - 2) + w * (
                        2.0 * r - 4.0 - (n - 2) * eta_x1**2 + 3.0 * c1_sq
                    )
                ac = self.a_coeff(vfr, hfr)
                a1s_sq = float(np.sum(ac[0, 1:, :] ** 2)) if n > 1 else 0.0
                rhs = (
                    self.ric_hat(vfr[0])
                    + self.ric_star(hfr[0])
                    + 0.25 * data.n_norm_sq
                    + 3.0 * a1s_sq
                    - an.delta_n
                    + data.norm_tv_sq
                    - data.norm_ah_sq
                )
                _, tc = self.t_coeff(vfr, hfr)
                diag = {
                    "equality_class": "chen_t",
                    "equality_defect": self.chen_t_defect(tc),
                }
                emit(None, vfr, hfr, lhs, rhs, "le", diag)
        return out


def _diag_bits(diag):
    return {k: v if isinstance(v, str) else bits(v) for k, v in diag.items()}


def _row_diagnostics(table, i):
    """Row i's equality-case fields, keyed as the per-probe formulas key them."""
    diag = {
        "equality_class": table.equality_class,
        "equality_defect": table.equality_defect[i],
    }
    if table.dropped_term is not None:
        diag["dropped_term"] = table.dropped_term[i]
    return diag


def _probe_bits(vec):
    return None if vec is None else bits(vec)


def _row(vectors, i):
    return None if vectors is None else vectors[i]


@pytest.fixture(scope="module")
def bench_analyses():
    """The sample of the benchmark's theorem scans: eight seed-42 points of
    each Reeb case."""
    return {name: _analyses(name, 8, 42) for name in MODELS[:2]}


# (mode, model, rng seed); random:64 is the benchmark's theorem scan, whose
# probe draws include etas that squaring as e * e would round differently
# from the Python float e**2 of the per-probe formulas
RECORD_CASES = [
    (mode, model, 11) for mode in ("all", "first", "random:8") for model in MODELS
] + [("random:64", model, 43) for model in MODELS[:2]]


@pytest.mark.parametrize(
    "mode, model, seed",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in RECORD_CASES],
)
def test_records_equal_per_probe_formulas_bitwise(
    analyses, bench_analyses, mode, model, seed
):
    sample = bench_analyses[model] if mode == "random:64" else analyses[model]
    xi_case = sample[0].calc.sub.xi_case
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    checked = 0
    for analysis in sample:
        ref = PerVector(analysis)
        for tid in applicable_ids(xi_case):
            got = evaluate_theorem(analysis, tid, mode, got_rng)
            want = ref.records(tid, mode, want_rng)
            assert got.slack.shape == (len(want),), tid
            for i, row in enumerate(want):
                variant, lhs, rhs, slack, holds, equality, diag, probes = row
                assert _row(got.variant, i) == variant
                assert bits(got.lhs[i]) == bits(lhs), (tid, got.lhs[i], lhs)
                assert bits(got.rhs[i]) == bits(rhs), (tid, got.rhs[i], rhs)
                assert bits(got.slack[i]) == bits(slack), (tid, got.slack[i], slack)
                assert (bool(got.holds[i]), bool(got.equality[i])) == (holds, equality)
                assert _diag_bits(_row_diagnostics(got, i)) == _diag_bits(diag), tid
                for vectors, probe in zip(
                    (got.probe_vertical, got.probe_horizontal), probes
                ):
                    assert _probe_bits(_row(vectors, i)) == _probe_bits(probe), tid
                checked += 1
    # both generators drew the same numbers in the same order
    assert bits(got_rng.standard_normal(4)) == bits(want_rng.standard_normal(4))
    assert checked > 0


@pytest.mark.parametrize("model", MODELS)
def test_tensor_data_equals_per_vector_formulas_bitwise(analyses, model):
    for analysis in analyses[model]:
        ref = PerVector(analysis)
        calc, data = analysis.calc, analysis.data
        for got, want in zip(calc._tensor_tables, ref.tensor_tables()):
            assert bits(got) == bits(want)
        tensors = ref.tensors()
        c_norms_sq = _c_norms_sq(calc, calc.frame.horiz_values)
        assert bits(c_norms_sq) == bits(tensors.pop("c_norms_sq"))
        for key, want in tensors.items():
            assert bits(getattr(data, key)) == bits(want), key
        lemmas = verify_structure_lemmas(calc, data)
        for key, want in ref.skew_and_anti_invariance().items():
            assert bits(lemmas[key]) == bits(want), key


@pytest.mark.parametrize("model", MODELS)
def test_packet_equals_per_vector_formulas_bitwise(analyses, model):
    for analysis in analyses[model]:
        ref = PerVector(analysis)
        hat, star = ref.hat_star_tables()
        assert bits(analysis.tau_hat) == bits(float(np.sum(np.triu(hat, k=1))))
        assert bits(analysis.tau_star) == bits(float(np.sum(np.triu(star, k=1))))
        assert bits(analysis.delta_n) == bits(ref.delta_n())
        res = analysis.identity_residuals
        two_tau = scalar_curvature(analysis.calc.curvature)
        assert bits(res["S2"]) == bits(abs(ref.four_block() - two_tau))
        assert bits(res["R1"]) == bits(ref.r1())
        assert bits(res["R2"]) == bits(ref.r2())
        assert bits(res["gauss3"]) == bits(ref.gauss3())


@pytest.mark.parametrize("model", MODELS)
def test_completion_skips_a_row_in_the_span_as_for_one_probe(analyses, model):
    # a probe along frame row i leaves row i in the span of the probe, so
    # the completion skips it; random probes in the same batch skip nothing
    analysis = analyses[model][0]
    ref = PerVector(analysis)
    for frame in (ref.uv, ref.xv):
        frame = np.asarray(frame, dtype=float)
        k = len(frame)
        coeffs = list(np.random.default_rng(3).standard_normal((3, k)))
        coeffs = [c / np.linalg.norm(c) for c in coeffs]
        coeffs += list(np.eye(k)) + [-np.eye(k)[-1]]
        got = _random_probe_frames(analysis.calc, frame, np.array(coeffs))
        for p, c in enumerate(coeffs):
            assert bits(got[p]) == bits(ref.complete(frame, c)), p


coord_seed = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(MODELS), seed=coord_seed, closed=st.booleans())
def test_frame_tables_equal_per_tuple_pair_r4(model, seed, closed):
    (analysis,) = _analyses(model, points=1, seed=seed)
    calc = analysis.calc
    t = calc.closed_curvature if closed else calc.curvature.r4
    f = np.array(calc.frame.jets.value, dtype=float)
    m = len(f)
    table = pair_r4(
        t,
        f[:, None, None, None],
        f[None, :, None, None],
        f[None, None, :, None],
        f[None, None, None, :],
    )
    assert table.shape == (m, m, m, m)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    want = _r4(t, f[a], f[b], f[c], f[d])
                    assert bits(table[a, b, c, d]) == bits(want), (a, b, c, d)
