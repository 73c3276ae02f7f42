"""Outside-in instrumentation of the oneill_lab package.

The benchmark wraps the program's public functions from here, without any
change to the program: every public module-level function of each layer
module, the methods listed in ``TRACED_METHODS`` (jet arithmetic among
them), and the constructor of ``jets.ScalarJet``, which is counted, never
timed. A wrapper is bound in place of the original in every package module
that holds the name, so ``contact.metric_at`` and ``riemannian.metric_at``
are both traced, as is ``analyze_point`` as bound in ``cli`` and in
``theorems``.

Two kinds of wrapper exist and are never active together: a counter, for
exact call counts, and a span recorder, for timing. The recorder sums self
times as spans end and keeps the spans in memory as
``[name, start, end, parent]`` for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "oneill_lab"

# Layers are the package modules, bottom up.
LAYERS = (
    "jets",
    "expressions",
    "riemannian",
    "contact",
    "submersion",
    "invariants",
    "theorems",
    "sampling",
    "report",
    "cli",
)

# Arithmetic of ``jets.ScalarJet``, where most jet work happens. Its time
# is charged to the jets layer, not to the function that does the sums.
# ``ScalarJet.sqrt`` is left out: its only caller is the traced ``jets.sqrt``.
JET_ARITHMETIC = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
)

# Methods traced on classes. A method span is named ``<layer>.<method>``, a
# constructor span ``<layer>.<Class>``. Beside jet arithmetic only the stages
# the benchmark names are traced: a span on every small helper method would
# move the time of the stage that calls it (delta_n calls the
# covariant-derivative helpers hundreds of times per point) into many tiny
# spans.
TRACED_METHODS = {
    ("jets", "ScalarJet"): JET_ARITHMETIC,
    ("submersion", "PointCalculus"): ("__init__", "delta_n"),
    ("report", "Report"): ("render",),
}

# Spans timed and summed but not recorded one by one (see SpanLog).
SUMMED_ONLY = frozenset(f"jets.{name}" for name in JET_ARITHMETIC)

# Constructions counted (not timed), under the name ``<layer>.<Class>``.
COUNTED_CONSTRUCTORS = (("jets", "ScalarJet"),)


def _method_targets(layer, cls, names):
    for name in names:
        fn = vars(cls).get(name)
        if inspect.isfunction(fn):
            span = f"{layer}.{cls.__name__}" if name == "__init__" else f"{layer}.{name}"
            yield span, cls, name, fn


def discover():
    """Instrumentation targets as ``(span, owner, attribute, function)``.

    ``owner`` is the module or class that defines the function. Layers,
    classes and methods that no longer exist are skipped, so a later version
    of the program that merges or deletes them is traced without error; the
    caller reports the named spans that were not found."""
    targets = []
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
    for layer, mod in modules.items():
        for name, fn in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
            ):
                targets.append((f"{layer}.{name}", mod, name, fn))
    for (layer, cls_name), names in TRACED_METHODS.items():
        cls = getattr(modules.get(layer), cls_name, None)
        if inspect.isclass(cls):
            targets.extend(_method_targets(layer, cls, names))
    return targets


def counted_constructors():
    out = []
    for layer, cls_name in COUNTED_CONSTRUCTORS:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        cls = getattr(mod, cls_name, None)
        if inspect.isclass(cls) and inspect.isfunction(vars(cls).get("__init__")):
            out.append((f"{layer}.{cls_name}", cls, "__init__", vars(cls)["__init__"]))
    return out


class Patch:
    """Binds wrappers in place of the targets; ``restore`` undoes it."""

    def __init__(self, targets, make_wrapper):
        self._undo = []
        package_modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for span, owner, attr, fn in targets:
            wrapper = make_wrapper(span, fn)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            # Rebind every module-level reference to the function, in the
            # defining module and in each module that imported it by name.
            for mod in package_modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def counting_wrapper(counts: Counter):
    def make(span, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[span] += 1
            return fn(*args, **kwargs)

        return counted

    return make


class SpanLog:
    """Timing wrappers for one thread, and what they measured.

    When a span ends, its self time (its duration minus the durations of
    the spans it directly encloses) is added to ``self_s[name]``. Spans are
    also kept in ``records`` as ``[name, start, end, parent]``, ``parent``
    being the index of the nearest enclosing kept span or -1, except those
    named in ``summed_only``: jet arithmetic runs some 20 k times per sample
    point, so its spans are timed and summed but not stored one by one.
    ``root_s`` is the summed duration of the outermost spans."""

    def __init__(self, summed_only=frozenset(), clock=time.perf_counter):
        self.self_s = defaultdict(float)
        self.records = []
        self._summed_only = summed_only
        self._clock = clock
        # One frame per open span: [seconds of enclosed spans, index that
        # spans opened inside it take as parent]. The bottom frame is the
        # run itself.
        self._stack = [[0.0, -1]]

    @property
    def root_s(self) -> float:
        return self._stack[0][0]

    def wrapper(self, span, fn):
        stack, records, clock = self._stack, self.records, self._clock
        totals = self.self_s
        keep = span not in self._summed_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = stack[-1]
            if keep:
                idx = len(records)
                records.append([span, 0.0, 0.0, outer[1]])
            else:
                idx = outer[1]
            frame = [0.0, idx]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                totals[span] += took - frame[0]
                outer[0] += took
                if keep:
                    records[idx][1:3] = start, end

        return traced
