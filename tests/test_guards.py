"""The admissibility guards (chart domains, the sampling locus, the base
domain at the projected point) go through the one evaluator of model
expressions, ``riemannian.model_jets``, by ``riemannian.guards_pass``."""

import json
import warnings

import numpy as np
import pytest

from oneill_lab import contact, expressions, submersion
from oneill_lab.cli import BUNDLED_DIR, main, resolve_model
from oneill_lab.errors import EmptySampleError, OutOfDomainError
from oneill_lab.expressions import compile_expression
from oneill_lab.jets import ArrayJet
from oneill_lab.riemannian import ManifoldModel, guards_pass, metric_at
from oneill_lab.sampling import OVERSAMPLE_FACTOR, SampleConfig, sample_submersion_points


def _passes(text, column):
    """``guards_pass`` of the one guard ``text`` over ``x1`` on a block of
    the values ``column``."""
    guard = compile_expression(text, ["x1"])
    return guards_pass([guard], np.asarray(column, dtype=float)[:, None]).tolist()


def test_guard_that_raises_at_some_points_fails_only_those():
    # x1**0.5 is not real where x1 < 0, and the jets raise for a fractional
    # power of a base <= 0, so x1 = 0 fails too
    assert _passes("x1**0.5", [4.0, -1.0, 9.0, 0.0, -4.0, 0.25]) == [
        True, False, True, False, False, True
    ]
    assert _passes("1/(x1-1)", [2.0, 1.0, 0.0, 3.0]) == [True, False, False, True]


def test_overflowing_guard_rejects_its_point():
    # (x1*x1)**1.5 overflows at x1 = 1e150: a float power that raises
    assert _passes("(x1*x1)**1.5 - 1", [2.0, 1e150, 0.5]) == [True, False, False]


def test_guard_that_is_not_finite_rejects_its_point():
    # x1**2 is the product x1*x1, which overflows to inf without an error
    assert _passes("x1**2 - 1", [1e155, 2.0, 1e200]) == [False, True, False]
    # and inf - inf is NaN
    assert _passes("x1*x1 - x1*x1 + 1", [1e200, 2.0]) == [False, True]


def test_guards_that_overflow_warn_nothing():
    # a library call rejects such points without numpy's RuntimeWarnings
    guard = compile_expression("x1**2 - 1", ["x1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert guards_pass([guard], [[1e155], [2.0], [1e200]]).tolist() == [False, True, False]


def test_every_guard_must_pass():
    guards = [compile_expression(t, ["x1", "x2"]) for t in ("x1", "x2**0.5 - 1")]
    block = [[1.0, 4.0], [-1.0, 4.0], [1.0, 0.25], [1.0, -4.0], [2.0, 9.0]]
    assert guards_pass(guards, block).tolist() == [True, False, False, False, True]


def test_out_of_domain_names_the_first_failing_point_of_the_block():
    # the polar chart r > 0.1, checked on a block of four points
    model = ManifoldModel(
        name="polar",
        dim=2,
        chart=("r", "t"),
        metric=((lambda vs: 1.0, lambda vs: 0.0), (lambda vs: 0.0, lambda vs: vs[0] * vs[0])),
        domain_guard=compile_expression("r - 0.1", ["r", "t"]),
    )
    metric_at(model, [[1.0, 0.0], [0.5, 2.0]])
    with pytest.raises(OutOfDomainError, match=r"point \[0\.05, 1\.0\] outside domain"):
        metric_at(model, [[1.0, 0.0], [0.05, 1.0], [0.5, 2.0], [0.0, 3.0]])


# ---- sampling ----


def _one_draw_at_a_time(sub, cfg):
    """The sample of ``sample_submersion_points`` drawn one point at a time,
    each point kept where ``guards_pass`` on the block of that point passes."""
    base = sub.base.domain_guard
    guards = [sub.total.model.domain_guard, sub.locus_guard]
    if base is not None:
        guards.append(lambda vs: base([f(vs) for f in sub.projection]))
    guards = [g for g in guards if g is not None]
    rng = np.random.default_rng(cfg.seed)
    out = []
    cap = OVERSAMPLE_FACTOR * cfg.points
    for _ in range(cap):
        pt = rng.uniform(cfg.box[0], cfg.box[1], size=sub.total.model.dim)
        if guards_pass(guards, pt[None])[0]:
            out.append(pt)
            if len(out) == cfg.points:
                return np.array(out)
    raise EmptySampleError(
        f"found {len(out)} admissible points of {cfg.points} requested after {cap} draws"
    )


@pytest.mark.parametrize("seed", [0, 3, 42, 1234])
@pytest.mark.parametrize("box", [(-2.0, 2.0), (-1.0, 1.5), (-1.0, 1.0), (-0.8, 0.8)])
def test_block_sampling_equals_one_draw_at_a_time(seed, box):
    # horizontal-xi has all three guards; at a box of +-1 about one draw in
    # six passes, and at +-0.8 seed 3 finds 4 of 20 points
    sub = resolve_model("horizontal-xi")
    cfg = SampleConfig(points=20, seed=seed, box=box)
    try:
        want = _one_draw_at_a_time(sub, cfg)
    except EmptySampleError as exc:
        with pytest.raises(EmptySampleError) as got:
            sample_submersion_points(sub, cfg)
        assert str(got.value) == str(exc)
        return
    got = sample_submersion_points(sub, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_block_sampling_can_end_short():
    sub = resolve_model("horizontal-xi")
    with pytest.raises(EmptySampleError, match="found 4 admissible points of 20 requested"):
        sample_submersion_points(sub, SampleConfig(points=20, seed=3, box=(-0.8, 0.8)))


# ---- one evaluator ----


def test_every_model_callable_sees_only_array_jets(tmp_path, monkeypatch, capsys):
    """With every compiled model callable wrapped, ``report`` on
    horizontal-xi (domain-free total space, locus, base domain) and
    ``verify`` on a vertical-xi copy with a ``domain`` call each callable
    with ``ArrayJet`` coordinates only. The constant parts folded when a
    file loads are evaluated inside ``compile_expression``, unwrapped."""
    called = []
    compile_plain = expressions.compile_expression

    def compile_checked(text, chart):
        f = compile_plain(text, chart)

        def checked(vs):
            called.append(text)
            assert all(isinstance(v, ArrayJet) for v in vs), (text, [type(v) for v in vs])
            return f(vs)

        return checked

    for module in (expressions, contact, submersion):
        monkeypatch.setattr(module, "compile_expression", compile_checked)

    data = json.loads((BUNDLED_DIR / "vertical-xi.json").read_text())
    data["domain"] = "x1+1.5"
    model = tmp_path / "domain.json"
    model.write_text(json.dumps(data))
    for argv in (
        ["report", "--model", "horizontal-xi", "--points", "6"],
        ["verify", "--model", str(model), "--points", "6"],
    ):
        out = tmp_path / "r.json"
        assert main(argv + ["--no-timestamp", "--out", str(out)]) in (0, 3)
    capsys.readouterr()
    hx = json.loads((BUNDLED_DIR / "horizontal-xi.json").read_text())
    for text in (hx["locus"], hx["base_domain"], *hx["projection"], "x1+1.5"):
        assert text in called, text
