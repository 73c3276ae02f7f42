"""End-to-end acceptance gate.

Each criterion gets one test and prints one PASS/FAIL line (run with -s to
see them on success).  Two bounds are recorded as strict expected failures:
the horizontal-Reeb diagnostic example carries a target metric that is not
length-preserving on any admissible point, and the two horizontal upper
bounds fail there at a constant margin.  Those tests assert the bound as
stated and are expected to fail; everything else must pass.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from darboux import darboux_frame, phi_sectional
from slices import analysis_blocks, blocks_of_one, calc_of_one, scan_tables
from oneill_lab.cli import cli_parse, resolve_model, run
from oneill_lab.contact import build_r2m1, space_form_data, space_form_r4_at, verify_sasakian
from oneill_lab.invariants import identity_residuals
from oneill_lab.jets import seed_block
from oneill_lab.riemannian import metric_at, riemann_at
from oneill_lab.sampling import SampleConfig, sample_model_points, sample_submersion_points
from oneill_lab.submersion import (
    load_custom_model,
    tensors_from_calculus,
    verify_riemannian_submersion,
    verify_structure_lemmas,
)
from oneill_lab.theorems import evaluate_theorem

REEB_MODEL = Path(__file__).resolve().parents[1] / "models" / "reeb_fiber.json"

CURV_TOL = 1e-7
CURV_BUDGET_S = 10.0
AXIOM_TOL = 1e-8
PHI_SEC_TOL = 1e-7
STRUCT_TOL = 1e-8
ID_TIGHT_TOL = 1e-8
ID_CURV_TOL = 1e-6
SLACK_FLOOR = -1e-9
SHARP_TOL = 1e-6

VERT_IDS = ("V1", "V2", "H1", "CRV1", "CMB1")
HORIZ_SOUND_IDS = ("V3", "CRV2", "CMB2")


def verdict(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def space_form():
    return build_r2m1(2)


@pytest.fixture(scope="module")
def sf_points(space_form):
    return sample_model_points(space_form.model, SampleConfig(points=100, seed=42))


@pytest.fixture(scope="module")
def vx_model():
    return resolve_model("vertical-xi")


@pytest.fixture(scope="module")
def hx_model():
    return resolve_model("horizontal-xi")


@pytest.fixture(scope="module")
def vx_points(vx_model):
    return sample_submersion_points(vx_model, SampleConfig(points=100, seed=42))


@pytest.fixture(scope="module")
def vx_blocks(vx_model, vx_points):
    return analysis_blocks(vx_model, vx_points)


@pytest.fixture(scope="module")
def vx_scan_tables(vx_model, vx_points):
    tables = {tid: [] for tid in VERT_IDS}
    for block in blocks_of_one(vx_model, vx_points):
        for tid in VERT_IDS:
            tables[tid].append(evaluate_theorem(block, tid))
    return tables


@pytest.fixture(scope="module")
def hx_report():
    cfg = cli_parse(
        ["report", "--model", "horizontal-xi", "--points", "100", "--seed", "42",
         "--no-timestamp"]
    )
    return run(cfg)


def test_c1_frame_curvature_cross_validation(space_form, sf_points):
    worst = 0.0
    start = time.monotonic()
    for pt in sf_points:
        fr = darboux_frame(pt)
        ad = riemann_at(space_form.model, pt).r4[0]
        closed = space_form_r4_at(space_form, pt)
        for arr in (fr, fr, fr, fr):
            ad = np.tensordot(arr, ad, axes=(1, 0))
            closed = np.tensordot(arr, closed, axes=(1, 0))
        worst = max(worst, float(np.max(np.abs(ad - closed))))
    elapsed = time.monotonic() - start
    ok = worst <= CURV_TOL and elapsed <= CURV_BUDGET_S
    assert verdict(
        1, ok,
        f"frame curvature AD vs closed form on {len(sf_points)} points: "
        f"max residual {worst:.3e} (tol {CURV_TOL:g}), {elapsed:.1f}s "
        f"(budget {CURV_BUDGET_S:g}s)",
    )


def test_c2_sasakian_axioms_and_phi_sections(space_form, sf_points):
    reeb = 0.0
    phi_law = 0.0
    for pt in sf_points:
        res = verify_sasakian(space_form_data(space_form, [pt]))
        reeb = max(reeb, float(res["reeb_derivative"][0]))
        phi_law = max(phi_law, float(res["phi_derivative"][0]))
    rng = np.random.default_rng(7)
    worst_sec = 0.0
    for k in range(50):
        pt = sf_points[k % len(sf_points)]
        gv = metric_at(space_form.model, [pt]).value[0]
        xi = darboux_frame(pt)[-1]
        vec = rng.uniform(-1.0, 1.0, size=space_form.model.dim)
        vec = vec - float(space_form.contact_at(seed_block([pt], order=1)).eta[0] @ vec) * xi
        norm_sq = float(vec @ gv @ vec)
        assert norm_sq > 1e-6
        sec = phi_sectional(space_form, pt, vec / np.sqrt(norm_sq))
        worst_sec = max(worst_sec, abs(sec + 3.0))
    ok = reeb <= AXIOM_TOL and phi_law <= AXIOM_TOL and worst_sec <= PHI_SEC_TOL
    assert verdict(
        2, ok,
        f"Reeb derivative law {reeb:.3e}, phi derivative law {phi_law:.3e} "
        f"(tol {AXIOM_TOL:g}); 50 phi-sections within {worst_sec:.3e} of -3 "
        f"(tol {PHI_SEC_TOL:g})",
    )


def test_c3_vertical_model_structure_suite(vx_model, vx_blocks):
    kernel = 0.0
    length = 0.0
    lemma_worst = 0.0
    for block in vx_blocks:
        chk = verify_riemannian_submersion(block.calc)
        kernel = max(kernel, *chk.kernel_residual)
        length = max(length, *chk.length_residual)
        lemmas = verify_structure_lemmas(block.calc, block.data)
        lemma_worst = max(lemma_worst, *(max(val) for val in lemmas.values()))
    tr_worst = max(abs(v + 2.0) for block in vx_blocks for v in block.data.trace_phi_b)
    ok = max(kernel, length, lemma_worst) <= STRUCT_TOL and tr_worst <= STRUCT_TOL
    assert verdict(
        3, ok,
        f"kernel {kernel:.3e}, length {length:.3e}, lemmas {lemma_worst:.3e} "
        f"(tol {STRUCT_TOL:g}); trace(phi B) = -2 within {tr_worst:.3e} at every point",
    )


def test_c4_identity_suite(vx_blocks):
    worst = {}
    for block in vx_blocks:
        for key, values in identity_residuals(block).items():
            for val in values:
                worst[key] = max(worst.get(key, 0.0), float(val))
    tight_ok = worst["T1"] <= ID_TIGHT_TOL
    rest = {k: v for k, v in worst.items() if k != "T1"}
    rest_ok = all(v <= ID_CURV_TOL for v in rest.values())
    ok = tight_ok and rest_ok
    assert verdict(
        4, ok,
        f"T1 {worst['T1']:.3e} (tol {ID_TIGHT_TOL:g}); "
        + ", ".join(f"{k} {v:.3e}" for k, v in rest.items())
        + f" (tol {ID_CURV_TOL:g}); 100 points",
    )


def test_c5_theorem_scans_sound_cases(vx_scan_tables, hx_report):
    vert_viol = {
        tid: sum(int(np.count_nonzero(~t.holds)) for t in tables)
        for tid, tables in vx_scan_tables.items()
    }
    h1_rhs = max(abs(rhs) for t in vx_scan_tables["H1"] for rhs in t.rhs.ravel())
    horiz_viol = {tid: hx_report.theorems[tid]["violations"] for tid in HORIZ_SOUND_IDS}
    ok = (
        all(v == 0 for v in vert_viol.values())
        and all(v == 0 for v in horiz_viol.values())
        and h1_rhs <= ID_TIGHT_TOL
    )
    assert verdict(
        5, ok,
        f"zero violations at slack floor {SLACK_FLOOR:g}: vertical {vert_viol}, "
        f"horizontal {horiz_viol}; H1 upper bound = 0 within {h1_rhs:.3e}; "
        "H2/CRH2 on the diagnostic model are separate expected failures",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the diagnostic model's target metric is not length-preserving "
    "anywhere admissible, and this upper bound fails there at a constant "
    "margin of 12",
)
def test_c5_h2_bound_on_diagnostic_model(hx_report):
    viol = hx_report.theorems["H2"]["violations"]
    verdict("5 (H2)", viol == 0, f"{viol} violations on the diagnostic model")
    assert viol == 0


@pytest.mark.xfail(
    strict=True,
    reason="same admissibility failure as H2; constant margin of 3",
)
def test_c5_crh2_bound_on_diagnostic_model(hx_report):
    viol = hx_report.theorems["CRH2"]["violations"]
    verdict("5 (CRH2)", viol == 0, f"{viol} violations on the diagnostic model")
    assert viol == 0


def test_c6_crh1_variant_disambiguation():
    cfg = cli_parse(
        ["theorems", "--model", "vertical-xi", "--points", "200", "--seed", "42",
         "--theorems", "CRH1", "--no-timestamp"]
    )
    entry = run(cfg).theorems["CRH1"]
    surviving = entry["surviving_variants"]
    tallies = {name: t["violations"] for name, t in entry["variants"].items()}
    ok = entry["points_checked"] >= 200 and len(surviving) >= 1
    assert verdict(
        6, ok,
        f"per-variant violations over {entry['points_checked']} points: {tallies}; "
        f"surviving variants this run: {surviving}",
    )


def test_c7_sharpness_under_vanishing_tensors(vx_scan_tables, hx_report, hx_model):
    # T == 0 models: the two fiber scalar bounds should be attained.
    reeb = load_custom_model(Path(REEB_MODEL).read_bytes())
    reeb_pts = sample_submersion_points(reeb, SampleConfig(points=20, seed=42))
    reeb_analyses = blocks_of_one(reeb, reeb_pts)
    assert np.max(np.abs(reeb_analyses[0].data.t_coeff)) <= 1e-9
    v2 = [t["V2"] for t in scan_tables(reeb_analyses, theorem_ids=("V2",))]
    v2_worst = max(abs(slack) for t in v2 for slack in t.slack.ravel())
    v3_entry = hx_report.theorems["V3"]
    v3_ok = (
        abs(v3_entry["min_slack"]) <= SHARP_TOL
        and v3_entry["equalities"] == v3_entry["points_checked"]
    )
    # A == 0 holds everywhere on the vertical-Reeb example: H1 is attained.
    h1_worst = max(abs(slack) for t in vx_scan_tables["H1"] for slack in t.slack.ravel())
    # The horizontal-Reeb models carry |A|^2 = 4 at every admissible point,
    # so no A == 0 point exists for H2; record the discovery instead.
    hx_pts = sample_submersion_points(hx_model, SampleConfig(points=10, seed=42))

    def a_max(pt):
        calc = calc_of_one(hx_model, pt)
        return float(np.max(np.abs(tensors_from_calculus(calc).a_coeff)))

    a_floor = min(a_max(pt) for pt in hx_pts)
    ok = v2_worst <= SHARP_TOL and v3_ok and h1_worst <= SHARP_TOL and a_floor > 0.5
    assert verdict(
        7, ok,
        f"V2 slack {v2_worst:.3e} on a T=0 fiber model, V3 equal at all "
        f"{v3_entry['points_checked']} points, H1 slack {h1_worst:.3e} where A=0; "
        f"H2 vacuous: sampled horizontal-Reeb A-components never drop below {a_floor:.2f}",
    )


def test_c8_diagnostic_model_surfaces_defects(hx_model, hx_report):
    sub = hx_report.structure["submersion"]
    lengths = sub["length_residuals"]
    flags = sub["base_pd_flags"]
    pts = sample_submersion_points(hx_model, SampleConfig(points=100, seed=42))
    tied = all(
        lengths[i] + 1e-9 >= 2.0 * abs(pt[0] * pt[2])
        for i, pt in enumerate(pts)
    )
    nonzero = all(
        lengths[i] > 0.0 for i, pt in enumerate(pts) if abs(pt[0] * pt[2]) > 1e-6
    )
    ok = (
        hx_report.verdict == "pass-with-flags"
        and len(lengths) == len(pts)
        and len(flags) == len(pts)
        and not sub["base_pd_all"]
        and tied
        and nonzero
    )
    assert verdict(
        8, ok,
        f"verdict {hx_report.verdict}; per-point length residuals reported and "
        f">= 2|x1 y1| at all {len(pts)} points; target metric flagged non-PD",
    )


def test_c9_seeded_runs_are_reproducible():
    argv = ["report", "--model", "vertical-xi", "--points", "10", "--seed", "7",
            "--probe", "random:2", "--no-timestamp"]
    first = run(cli_parse(argv)).render(None)
    second = run(cli_parse(argv)).render(None)
    ok = first == second
    assert verdict(
        9, ok,
        f"repeated seeded run renders byte-identical report ({len(first)} bytes)",
    )
