"""Each frame quantity of a block is made once, and its readers index it.

T and A are evaluated once each on all frame pairs (``OneillData.t_frame``
and ``a_frame``), the covariant derivatives of the frame fields along each
other are one table of the ``PointCalculus``, which ``nabla_t_frame`` and
``nabla_a_frame`` read by frame slot, and the ambient curvature on frame
4-tuples is made once per kind of tuple (``ambient_frame_tables``). The
``_plain_*`` functions below are the spellings these replaced, each
evaluation made where it was read. Every table entry must equal them bit
for bit, on the three submersion models, at blocks of 1, 6 and 10 points.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from oneill_lab import invariants
from oneill_lab.cli import RunConfig, _submersion_block, resolve_model
from oneill_lab.contact import space_form_data
from oneill_lab.invariants import (
    _ambient,
    _ijji,
    ambient_frame_tables,
    analyze_point,
)
from oneill_lab.riemannian import point_maxima, point_sums, running_sum
from oneill_lab.sampling import SampleConfig, sample_submersion_points
from oneill_lab.submersion import (
    PointCalculus,
    load_custom_model,
    tensors_from_calculus,
    verify_structure_lemmas,
)

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")
MODELS = ("vertical-xi", "horizontal-xi", "reeb_fiber")
SIZES = (1, 6, 10)


def _model(name):
    if name == "reeb_fiber":
        return load_custom_model(Path(MODELS_DIR, "reeb_fiber.json").read_bytes())
    return resolve_model(name)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture(
    scope="module",
    params=[(m, s) for m in MODELS for s in SIZES],
    ids=[f"{m}-{s}" for m in MODELS for s in SIZES],
)
def analysis(request):
    """The analysis of one block of ``size`` seed-42 points of a model."""
    name, size = request.param
    sub = _model(name)
    pts = sample_submersion_points(sub, SampleConfig(points=size, seed=42))
    block = analyze_point(sub, space_form_data(sub.total, pts))
    assert len(block.calc.point) == size
    return block


# ---- T and A on the frame ----


def _plain_tensor_blocks(calc):
    """T and A on the frame blocks, one evaluation each, as the tensor data,
    the lemmas' skew check and gauss3 made them."""
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    frame = np.asarray(calc.frame.jets.value, dtype=float)
    return {
        "t_uu": calc.t_point(uv[:, :, None], uv[:, None]),
        "t_ux": calc.t_point(uv[:, :, None], xv[:, None]),
        "a_xx": calc.a_point(xv[:, :, None], xv[:, None]),
        "a_xu": calc.a_point(xv[:, :, None], uv[:, None]),
        "skew_t": calc.t_point(frame[:, :, None], frame[:, None]),
        "skew_a": calc.a_point(frame[:, :, None], frame[:, None]),
        "t_mixed": calc.t_point(uv[:, None], xv[:, :, None]),  # [p, i, k]: T(U_k, X_i)
        "a_mixed": calc.a_point(xv[:, :, None], uv[:, None]),  # [p, i, k]: A(X_i, U_k)
    }


def _plain_tensors_from_calculus(calc) -> dict:
    """The former ``tensors_from_calculus``, on C-ordered blocks of its own
    evaluations, without the tables it stored."""
    r = calc.r
    uvals, xvals = calc.frame.vert_values, calc.frame.horiz_values
    t_uu = calc.t_point(uvals[:, :, None], uvals[:, None])
    t_coeff = calc.pairings(t_uu[:, :, :, None], xvals[:, None, None])
    a_xx = calc.a_point(xvals[:, :, None], xvals[:, None])
    a_coeff = calc.pairings(a_xx[:, :, :, None], uvals[:, None, None])
    t_ux = calc.t_point(uvals[:, :, None], xvals[:, None])
    a_xu = calc.a_point(xvals[:, :, None], uvals[:, None])
    ks = np.arange(r)
    n_vec = running_sum(np.moveaxis(t_uu[:, ks, ks], 1, 0))
    phi_x = calc.phi_of(xvals)
    b_part = calc.v_project_values(phi_x)
    return {
        "t_coeff": t_coeff,
        "a_coeff": a_coeff,
        "sum_t_sq": np.sum(t_coeff**2, axis=(1, 2, 3)),
        "sum_a_sq": np.sum(a_coeff**2, axis=(1, 2, 3)),
        "norm_tv_sq": point_sums(calc.pairings(t_ux, t_ux)),
        "norm_ah_sq": point_sums(calc.pairings(a_xu, a_xu)),
        "n_vec": n_vec,
        "n_norm_sq": calc.pairings(n_vec, n_vec),
        "phi_x": phi_x,
        "b_part": b_part,
        "phi_b": calc.phi_of(b_part),
        "trace_phi_b": point_sums(calc.pairings(calc.phi_of(b_part), xvals)),
    }


def test_tensor_frame_blocks_equal_their_own_evaluations(analysis):
    calc, data = analysis.calc, analysis.data
    r = calc.r
    d = r + calc.n
    assert data.t_frame.shape == data.a_frame.shape == (len(calc.point), d, d, d)
    got = {
        "t_uu": data.t_frame[:, :r, :r],
        "t_ux": data.t_frame[:, :r, r:],
        "a_xx": data.a_frame[:, r:, r:],
        "a_xu": data.a_frame[:, r:, :r],
        "skew_t": data.t_frame,
        "skew_a": data.a_frame,
        "t_mixed": np.swapaxes(data.t_frame[:, :r, r:], 1, 2),
        "a_mixed": data.a_frame[:, r:, :r],
    }
    for key, want in _plain_tensor_blocks(calc).items():
        assert got[key].shape == want.shape, key
        assert bits(got[key]) == bits(want), key


def test_tensor_data_read_from_views_equals_the_former_spelling(analysis):
    data = tensors_from_calculus(analysis.calc)
    want = _plain_tensors_from_calculus(analysis.calc)
    assert set(want) == set(data._fields) - {"t_frame", "a_frame"}
    for key, value in want.items():
        assert bits(getattr(data, key)) == bits(value), key


def _plain_c_square(calc):
    """The lemmas' former ``c_square``, with the B part of phi made again."""
    xvals = calc.frame.horiz_values
    phix = calc.phi_of(xvals)
    b_part = calc.v_project_values(phix)
    c_part = calc.h_project_values(phix)
    resid = calc.h_project_values(calc.phi_of(c_part)) + xvals
    if calc.sub.xi_case == "horizontal":
        resid = resid - calc.eta_of(xvals)[..., None] * calc.state.contact.xi[:, None]
    resid = resid + calc.phi_of(b_part)
    return point_maxima(np.abs(resid))


def test_c_square_reads_the_stored_b_part(analysis):
    got = verify_structure_lemmas(analysis.calc, analysis.data)["c_square"]
    assert bits(got) == bits(_plain_c_square(analysis.calc))


# ---- the ambient curvature on frame 4-tuples ----


def _plain_traces(calc, a, b):
    """S2's former ``traces``: [p, i, j] = R(a_i, b_j, b_j, a_i), evaluated
    on its own."""
    r4 = calc.state.curvature.r4
    return _ambient(calc, r4, a[:, :, None], b[:, None], b[:, None], a[:, :, None])


def test_ijji_entries_of_the_frame_tables_equal_the_former_traces(analysis):
    calc = analysis.calc
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    uuuu, xxxx, uxxu = ambient_frame_tables(calc)
    r, n = calc.r, calc.n
    assert (uuuu.shape[1:], xxxx.shape[1:], uxxu.shape[1:]) == ((r,) * 4, (n,) * 4, (r, n, n, r))
    for got, (a, b) in ((uuuu, (uv, uv)), (xxxx, (xv, xv)), (uxxu, (uv, xv))):
        assert bits(_ijji(got)) == bits(_plain_traces(calc, a, b))


# ---- covariant derivatives on frame slots ----


def _plain_nabla_t_frame(calc, e_values, k, l):
    """The former ``nabla_t_frame``: along the vectors ``e_values``, each
    slot's derivative made by ``cov_point`` where it is read."""
    t_fields, _ = calc._exchange_fields
    jets, uv = calc.frame.jets, calc.frame.vert_values
    main = calc.cov_point(e_values, t_fields[:, k, l])
    c1 = calc.t_point(calc.cov_point(e_values, jets[:, k]), uv[:, l])
    c2 = calc.t_point(uv[:, k], calc.cov_point(e_values, jets[:, l]))
    return main - c1 - c2


def _plain_nabla_a_frame(calc, e_values, i, j):
    """The former ``nabla_a_frame``, as ``_plain_nabla_t_frame``."""
    _, a_fields = calc._exchange_fields
    jets, xv, r = calc.frame.jets, calc.frame.horiz_values, calc.r
    main = calc.cov_point(e_values, a_fields[:, i, j])
    c1 = calc.a_point(calc.cov_point(e_values, jets[:, r + i]), xv[:, j])
    c2 = calc.a_point(xv[:, i], calc.cov_point(e_values, jets[:, r + j]))
    return main - c1 - c2


def _plain_delta_n(calc):
    xv = calc.frame.horiz_values[..., :, None, :]
    ks = np.arange(calc.r)[None, :]
    terms = calc.pairings(_plain_nabla_t_frame(calc, xv, ks, ks), xv)
    return running_sum(np.moveaxis(terms.reshape(terms.shape[:-2] + (-1,)), -1, 0))


def test_nabla_on_frame_slots_equals_the_former_vector_spelling(analysis):
    calc = analysis.calc
    r, n = calc.r, calc.n
    every = calc.frame.jets.value[:, :, None, None]
    uv, xv = calc.frame.vert_values, calc.frame.horiz_values
    ks, js, es = np.arange(r), np.arange(n), np.arange(r + n)
    cases = [
        # delta_n: [p, i, k] along X_i on (U_k, U_k)
        (
            calc.nabla_t_frame(r + js[:, None], ks[None, :], ks[None, :]),
            _plain_nabla_t_frame(calc, xv[..., :, None, :], ks[None, :], ks[None, :]),
        ),
        # gauss3: [p, i, k, l] along X_i on (U_k, U_l)
        (
            calc.nabla_t_frame(r + js[:, None, None], ks[None, :, None], ks[None, None, :]),
            _plain_nabla_t_frame(calc, xv[:, :, None, None], ks[None, :, None], ks[None, None, :]),
        ),
        # gauss3: [p, i, k, j] along U_k on (X_i, X_j)
        (
            calc.nabla_a_frame(ks[None, :, None], js[:, None, None], js[None, None, :]),
            _plain_nabla_a_frame(calc, uv[:, None, :, None], js[:, None, None], js[None, None, :]),
        ),
        # along every frame field, on every pair of each block
        (
            calc.nabla_t_frame(es[:, None, None], ks[None, :, None], ks[None, None, :]),
            _plain_nabla_t_frame(calc, every, ks[None, :, None], ks[None, None, :]),
        ),
        (
            calc.nabla_a_frame(es[:, None, None], js[None, :, None], js[None, None, :]),
            _plain_nabla_a_frame(calc, every, js[None, :, None], js[None, None, :]),
        ),
    ]
    for k, (got, want) in enumerate(cases):
        assert got.shape == want.shape, k
        assert bits(got) == bits(want), k
    assert bits(calc.delta_n()) == bits(_plain_delta_n(calc))
    assert bits(analysis.delta_n) == bits(_plain_delta_n(calc))


# ---- made once ----


def test_each_frame_quantity_is_made_once_per_block(monkeypatch):
    """The whole ``verify`` pipeline of one block (``cli._submersion_block``:
    the analysis, the Reeb-case check, the structure parts and the identity
    residuals) evaluates R on 8 kinds of tuples (the hat and star tables,
    the XU traces, three ambient frame tables and two closed-form ones),
    takes 4 covariant derivatives (the frame table, delta_n's and gauss3's
    two exchange-jet terms), 8 evaluations of T or A (the two frame tables
    and the six slot corrections of the three derivatives), 3 vertical
    projections (two blocks of the derivative table, and the B part of phi
    on the horizontal frame, which the lemmas read from the tensor data) and
    4 products with phi (phi X and phi B in the tensor data, which the lemmas
    read, and the lemmas' phi U and phi of the C part)."""
    calls = {
        "pair_r4": 0, "cov_point": 0, "t_point": 0, "a_point": 0, "v_project_values": 0,
        "phi_of": 0,
    }

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(invariants, "pair_r4", counted("pair_r4", invariants.pair_r4))
    for name in ("cov_point", "t_point", "a_point", "v_project_values", "phi_of"):
        monkeypatch.setattr(PointCalculus, name, counted(name, getattr(PointCalculus, name)))
    sub = _model("vertical-xi")
    pts = sample_submersion_points(sub, SampleConfig(points=6, seed=42))
    parts = _submersion_block(sub, RunConfig("verify"), None, 0, pts)
    assert set(parts) == {"sasakian", "submersion", "lemmas", "identities"}
    assert calls == {
        "pair_r4": 8, "cov_point": 4, "t_point": 5, "a_point": 3, "v_project_values": 3,
        "phi_of": 4,
    }
