"""The block path against one-point evaluation.

Every stage runs once per block of points, from a plain space form's
total-space data to the theorem scans. Every array of a block's records,
sliced at a point, and the point's rows of a block's theorem tables, must
equal, bit for bit, the block of that point alone, whatever the size of
the block and the order of its points, and an error at a point must be the
one the first failing point alone raises.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oneill_lab.cli import _maxima, _space_form_summary, resolve_model
from oneill_lab.contact import build_r2m1, space_form_data
from oneill_lab.errors import DegenerateFrameError
from oneill_lab.invariants import analyze_point, identity_residuals
from oneill_lab.jets import ArrayJet
from oneill_lab.riemannian import VectorField, point_blocks
from oneill_lab.sampling import SampleConfig, sample_model_points, sample_submersion_points
from oneill_lab.submersion import (
    PointCalculus,
    load_custom_model,
    verify_riemannian_submersion,
    verify_structure_lemmas,
)
from oneill_lab.theorems import TheoremTable, scan_from_records, scan_theorems

MODELS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "models")
MODELS = ("vertical-xi", "horizontal-xi", "reeb_fiber")


def _model(name):
    if name == "reeb_fiber":
        return load_custom_model(Path(MODELS_DIR, "reeb_fiber.json").read_bytes())
    return resolve_model(name)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _stages(sub, points):
    """The analysis, the identity residuals, the submersion checks and the
    lemmas of a block."""
    analysis = analyze_point(sub, space_form_data(sub.total, points))
    calc = analysis.calc
    return (
        analysis,
        identity_residuals(analysis),
        verify_riemannian_submersion(calc),
        verify_structure_lemmas(calc, analysis.data),
    )


def _arrays(record, path=()):
    """(path, array) for every array of the records of a block, in a fixed
    order: the fields of records (NamedTuples) by name, the attributes of a
    ``PointCalculus`` but its model, the items of other tuples and of dicts,
    and the parts of array jets."""
    if isinstance(record, np.ndarray):
        yield path, record
    elif isinstance(record, ArrayJet):
        for part in ("value", "gradient", "hessian"):
            if getattr(record, part) is not None:
                yield path + (part,), getattr(record, part)
    elif isinstance(record, PointCalculus):
        for name, value in vars(record).items():
            if name != "sub":
                yield from _arrays(value, path + (name,))
    elif isinstance(record, tuple) and hasattr(record, "_fields"):
        for name in record._fields:
            yield from _arrays(getattr(record, name), path + (name,))
    elif isinstance(record, (tuple, dict)):
        items = record.items() if isinstance(record, dict) else enumerate(record)
        for key, value in items:
            yield from _arrays(value, path + (key,))
    else:
        assert isinstance(record, int), path  # the frame counts r and n


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=st.sampled_from(MODELS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    size=st.integers(min_value=1, max_value=7),
    data=st.data(),
)
def test_block_arrays_at_a_point_equal_its_block_of_one(model, seed, size, data):
    sub = _model(model)
    pts = sample_submersion_points(sub, SampleConfig(points=size, seed=seed))
    pts = pts[data.draw(st.permutations(range(size)))]
    # the analysis (calculus, frame and exchange jets, tensor data, tau_hat,
    # tau_star, delta_n), the identity residuals, the checks and the lemmas
    block = list(_arrays(_stages(sub, pts)))
    reached = {path[:3] for path, _ in block}
    for name in ("state", "point", "frame", "_nabla_frame", "_tensor_tables", "_exchange_fields"):
        assert (0, "calc", name) in reached, name
    for k, pt in enumerate(pts):
        one = list(_arrays(_stages(sub, pt[None])))
        assert [path for path, _ in one] == [path for path, _ in block]
        for (path, got), (_, want) in zip(block, one):
            assert (len(got), len(want)) == (size, 1), path
            assert bits(got[k]) == bits(want[0]), path


def _full_block(d):
    """The number of points of a total-space block of ``point_blocks``."""
    return len(next(point_blocks(range(1000), d)))


def _assert_space_form_block_of_ones(m, pts):
    """Every array of ``space_form_data`` on the block ``pts``, sliced at a
    point, and the block's summary, folded from those of its points, are
    those of the point's block of one."""
    spec = build_r2m1(m)
    state = space_form_data(spec, pts)
    block = list(_arrays(state))
    assert {path[0] for path, _ in block} == set(state._fields)
    ones = [space_form_data(spec, pt[None]) for pt in pts]
    for k, one in enumerate(ones):
        want = list(_arrays(one))
        assert [path for path, _ in want] == [path for path, _ in block]
        for (path, got), (_, value) in zip(block, want):
            assert (len(got), len(value)) == (len(pts), 1), path
            assert bits(got[k]) == bits(value[0]), path
    summary = _space_form_summary(state)
    folded = _maxima(map(_space_form_summary, ones))
    assert list(summary) == list(folded)
    assert {key: bits(v) for key, v in summary.items()} == {
        key: bits(v) for key, v in folded.items()
    }


def _space_form_sample(m, size, seed):
    return sample_model_points(build_r2m1(m).model, SampleConfig(points=size, seed=seed))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_space_form_block_at_a_point_equals_its_block_of_one(m, seed, data):
    # any size up to one point past the blocks of point_blocks
    size = data.draw(st.integers(min_value=1, max_value=_full_block(2 * m + 1) + 1))
    pts = _space_form_sample(m, size, seed)
    _assert_space_form_block_of_ones(m, pts[data.draw(st.permutations(range(size)))])


@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_full_space_form_block_equals_its_blocks_of_one(m, past):
    pts = _space_form_sample(m, _full_block(2 * m + 1) + past, 7)
    _assert_space_form_block_of_ones(m, pts[::-1])


def _field_bits(value):
    if value is None or isinstance(value, (str, tuple)):
        return value
    return bits(value)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=st.sampled_from(MODELS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    size=st.integers(min_value=1, max_value=7),
    mode=st.sampled_from(("first", "all", "random:3")),
    data=st.data(),
)
def test_scan_rows_equal_scans_of_blocks_of_one_point(model, seed, size, mode, data):
    sub = _model(model)
    pts = sample_submersion_points(sub, SampleConfig(points=size, seed=seed))
    pts = pts[data.draw(st.permutations(range(size)))]
    block_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = analyze_point(sub, space_form_data(sub.total, pts))
    scans = scan_theorems([block], probe_mode=mode, rng=block_rng)
    # every applicable id, point by point, from one generator: the draws of
    # one point at a time
    ones = [
        scan_theorems(
            [analyze_point(sub, space_form_data(sub.total, pt[None]))],
            probe_mode=mode,
            rng=one_rng,
        )
        for pt in pts
    ]
    assert block_rng.bit_generator.state == one_rng.bit_generator.state
    for tid, scan in scans.items():
        (table,) = scan.tables
        for k, one in enumerate(ones):
            (want,) = one[tid].tables
            for name in TheoremTable._fields:
                got_value, want_value = getattr(table, name), getattr(want, name)
                if isinstance(got_value, np.ndarray):
                    got_value, want_value = got_value[k], want_value[0]
                assert _field_bits(got_value) == _field_bits(want_value), (tid, name)
        # the block's reduction is that of the rows of its points in order
        merged = scan_from_records(tid, [one[tid].tables[0] for one in ones], size)
        for name in ("points_checked", "records", "violations", "equalities"):
            assert getattr(scan, name) == getattr(merged, name), (tid, name)
        assert bits(scan.min_slack) == bits(merged.min_slack), tid
        assert bits(scan.argmin_point) == bits(merged.argmin_point), tid
        tallies, want_tallies = scan.variant_tallies or {}, merged.variant_tallies or {}
        assert list(tallies) == list(want_tallies), tid
        for name, tally in tallies.items():
            want_tally = want_tallies[name]
            assert {k: bits(v) for k, v in tally.items()} == {
                k: bits(v) for k, v in want_tally.items()
            }, (tid, name)


def _plus(f, coord, g):
    """The field f + x_coord * g."""
    return VectorField(
        components=tuple(
            lambda vs, a=a, b=b: a(vs) + vs[coord] * b(vs)
            for a, b in zip(f.components, g.components)
        )
    )


class TestFrameErrorParity:
    def test_first_dependent_point_in_sample_order_raises(self):
        base = resolve_model("vertical-xi")
        v1, v2, xi = base.vertical_fields
        # the second field is dependent where x1 = 0, the third where x2 = 0
        bad = base._replace(
            name="bad", vertical_fields=(v1, _plus(v1, 0, v2), _plus(v2, 1, xi))
        )
        pts = np.array(
            [
                [0.5, 0.3, 0.9, 0.4, 0.2],
                [0.7, 0.0, -0.4, 1.1, 0.3],
                [0.6, -0.8, 0.2, 0.5, -1.0],
                [0.0, 0.6, 1.2, -0.3, 0.8],
            ]
        )
        # point 3 fails at an earlier field than point 1, which comes first
        for first, block in ((1, pts), (3, pts[[0, 2, 3]])):
            message = f"declared fields of 'bad' are dependent at {pts[first].tolist()}"
            with pytest.raises(DegenerateFrameError) as alone:
                PointCalculus(bad, space_form_data(bad.total, pts[first][None]))
            with pytest.raises(DegenerateFrameError) as info:
                PointCalculus(bad, space_form_data(bad.total, block))
            assert str(info.value) == str(alone.value) == message
        PointCalculus(bad, space_form_data(bad.total, pts[[0, 2]]))
