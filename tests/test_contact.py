"""Sasakian structure residuals and space-form curvature on the builtin model."""

import numpy as np
import pytest

from darboux import darboux_frame, phi_sectional, sectional_curvature
from oneill_lab import expressions
from oneill_lab.contact import build_r2m1, space_form_data, space_form_r4_at, verify_sasakian
from oneill_lab.errors import RejectedInputError
from oneill_lab.jets import seed_block
from oneill_lab.riemannian import metric_at, riemann_at

TOL_ALG = 1e-10
TOL_CURV = 1e-7

POINTS5 = [
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.3, -1.1, 0.7, 0.2, -0.5],
    [1.5, 0.4, -0.9, 1.2, 2.0],
]


@pytest.fixture(scope="module")
def spec5():
    return build_r2m1(2)


@pytest.mark.parametrize("pt", POINTS5)
def test_sasakian_residuals_vanish(spec5, pt):
    res = verify_sasakian(space_form_data(spec5, [pt]))
    for name, (val,) in res.items():
        assert val < TOL_ALG, f"{name} residual {val}"


@pytest.mark.parametrize("pt", POINTS5)
def test_frame_is_orthonormal(spec5, pt):
    gv = metric_at(spec5.model, [pt]).value[0]
    fr = darboux_frame(pt)
    gram = fr @ gv @ fr.T
    assert np.max(np.abs(gram - np.eye(5))) < TOL_ALG


def test_frame_is_phi_adapted(spec5):
    pt = [0.3, -1.1, 0.7, 0.2, -0.5]
    fr = darboux_frame(pt)
    phi_v = spec5.contact_at(seed_block([pt], order=1)).phi[0]
    m = 2
    for i in range(m):
        # phi E_i = E_{m+i}, phi E_{m+i} = -E_i
        assert np.allclose(phi_v @ fr[i], fr[m + i], atol=TOL_ALG)
        assert np.allclose(phi_v @ fr[m + i], -fr[i], atol=TOL_ALG)
    assert np.max(np.abs(phi_v @ fr[2 * m])) < TOL_ALG


@pytest.mark.parametrize("pt", POINTS5)
def test_curvature_matches_space_form_formula(spec5, pt):
    """The chart Riemann tensor equals the constant-c closed form, with the
    same slot and sign conventions and no global flip."""
    got = riemann_at(spec5.model, pt).r4[0]
    want = space_form_r4_at(spec5, pt)
    assert np.max(np.abs(got - want)) < TOL_CURV


def test_reeb_sectional_is_one(spec5):
    pt = [0.3, -1.1, 0.7, 0.2, -0.5]
    fr = darboux_frame(pt)
    for i in range(4):
        k = sectional_curvature(spec5.model, pt, fr[i], fr[4])
        assert abs(k - 1.0) < TOL_CURV


def test_phi_sectional_is_c(spec5):
    pt = [0.3, -1.1, 0.7, 0.2, -0.5]
    fr = darboux_frame(pt)
    for i in range(4):
        assert abs(phi_sectional(spec5, pt, fr[i]) - (-3.0)) < TOL_CURV
    # also a mixed unit combination orthogonal to xi
    x = (fr[0] + fr[3]) / np.sqrt(2.0)
    assert abs(phi_sectional(spec5, pt, x) - (-3.0)) < TOL_CURV


def test_phi_sectional_preconditions(spec5):
    pt = [0.0, 0.0, 0.0, 0.0, 0.0]
    fr = darboux_frame(pt)
    with pytest.raises(RejectedInputError):
        phi_sectional(spec5, pt, 2.0 * fr[0])
    with pytest.raises(RejectedInputError):
        phi_sectional(spec5, pt, fr[4])


def test_r7_model_also_sasakian():
    spec = build_r2m1(3)
    pt = [0.2, -0.4, 0.6, 0.1, 0.9, -0.3, 1.4]
    res = verify_sasakian(space_form_data(spec, [pt]))
    for name, (val,) in res.items():
        assert val < TOL_ALG, f"{name} residual {val}"
    got = riemann_at(spec.model, pt).r4[0]
    want = space_form_r4_at(spec, pt)
    assert np.max(np.abs(got - want)) < TOL_CURV


def test_bad_m_rejected():
    with pytest.raises(RejectedInputError):
        build_r2m1(0)


def test_each_distinct_entry_is_compiled_once_per_document(monkeypatch):
    # r2m1:4 has 180 entries, 133 of them "0"; a second build is a new
    # document and compiles its entries again
    texts = []
    compile_expression = expressions.compile_expression

    def counted(text, chart):
        texts.append(text)
        return compile_expression(text, chart)

    monkeypatch.setattr(expressions, "compile_expression", counted)
    spec = build_r2m1(4)
    assert len(texts) == len(set(texts)) < 180
    build_r2m1(4)
    assert texts[len(texts) // 2 :] == texts[: len(texts) // 2]
    assert spec.phi[0][0] is spec.model.metric[0][5]  # both "0"
