"""Self-time arithmetic and the outside-in wrappers."""

import json
from pathlib import Path

import pytest

import child
import spans


def scripted_clock(*ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 2] and b [3, 9]; b holds a summed-only
    # span c [4, 5] and a kept span d [6, 8], which holds c again [6.5, 7].
    log = spans.SpanLog(
        summed_only=frozenset({"c"}),
        clock=scripted_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 7.0, 8.0, 9.0, 10.0),
    )
    c = log.wrapper("c", lambda: None)

    def d_body():
        c()

    d = log.wrapper("d", d_body)

    def b_body():
        c()
        d()

    a = log.wrapper("a", lambda: None)
    b = log.wrapper("b", b_body)

    def outer_body():
        a()
        b()

    log.wrapper("outer", outer_body)()
    assert dict(log.self_s) == pytest.approx(
        {"outer": 10.0 - 1.0 - 6.0, "a": 1.0, "b": 6.0 - 1.0 - 2.0, "c": 1.5, "d": 1.5}
    )
    # the self times add up to the outermost span's duration
    assert sum(log.self_s.values()) == pytest.approx(log.root_s) == pytest.approx(10.0)
    # summed-only spans are not recorded; the others keep their parents
    assert log.records == [
        ["outer", 0.0, 10.0, -1],
        ["a", 1.0, 2.0, 0],
        ["b", 3.0, 9.0, 0],
        ["d", 6.0, 8.0, 2],
    ]


def test_span_ends_when_the_function_raises():
    log = spans.SpanLog(clock=scripted_clock(0.0, 1.0, 2.0, 5.0))

    def fail():
        raise ValueError

    failing = log.wrapper("fail", fail)

    def outer_body():
        with pytest.raises(ValueError):
            failing()

    log.wrapper("outer", outer_body)()
    assert dict(log.self_s) == pytest.approx({"outer": 4.0, "fail": 1.0})
    assert [r[3] for r in log.records] == [-1, 0]


def test_latency_percentiles():
    assert child._latency_ms([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert child._latency_ms([0.0, 10.0], 90) == pytest.approx(9.0)
    assert child._latency_ms([7.0], 90) == 7.0
    assert child._latency_ms([], 50) == 0.0


def test_patch_rebinds_imported_names_and_restores():
    from oneill_lab import cli, contact, invariants, jets, riemannian, theorems

    targets = spans.discover()
    names = {t[0] for t in targets}
    assert {"riemannian.metric_at", "invariants.analyze_point", "cli.main"} <= names
    original = riemannian.metric_at
    calls = []

    def make(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    with spans.Patch(targets, make):
        assert contact.metric_at is riemannian.metric_at is not original
        assert cli.analyze_point is theorems.analyze_point is invariants.analyze_point
        x = jets.variable(2.0, 0, 1)
        calls.clear()
        assert (1.0 + x * x).value == 5.0
        assert calls == ["jets.__mul__", "jets.__radd__", "jets.constant"]
    assert riemannian.metric_at is original and contact.metric_at is original
    assert jets.ScalarJet.__radd__ is jets.ScalarJet.__add__


def test_every_named_span_exists_at_this_commit():
    found = {t[0] for t in spans.discover()}
    found |= {t[0] for t in spans.counted_constructors()}
    assert sorted(child.NAMED_SPANS - found) == []


def test_benchmark_json_declares_the_measured_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    expected = {f"{layer}.self_s" for layer in spans.LAYERS}
    expected |= {f"{layer}.calls_pp" for layer in spans.LAYERS}
    expected |= {f"{n}.self_s" for n in child.SELF_SPANS}
    expected |= {f"{n}.calls_pp" for n in child.CALL_SPANS}
    assert expected <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "points_per_s", "peak_rss_mb"
    }
