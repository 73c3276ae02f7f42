"""Machine-speed calibration for the benchmark's timings.

On a shared host the same single-threaded work runs up to two or three
times slower for tens of seconds at a time, while neighbours load the
cores; the guest sees no steal time, so neither CPU time nor wall time
escapes it. The benchmark therefore times a fixed kernel right before and
right after each operation it measures and reports a run's mean time scaled
to the kernel's nominal speed: ``seconds * NOMINAL_S / mean kernel time``
(set-up probes use a power of that ratio, see ``scaled``). The kernel is the
benchmark's own code and never changes with the program, so a slower
program still reads slower; only the host's speed is divided out.

The kernel mimics the program's hot path (small forward-mode jets: Python
objects holding a value, a gradient and a Hessian, combined with products
of tiny numpy arrays) so that it slows down with the host as the program
does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on a 2-core x86-64 VM with Python 3.11 and numpy 2.4 when its
# host was quiet. It fixes the unit of the scaled times and nothing else.
NOMINAL_S = 0.004

_DIM = 5


class _Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = value
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        return _Jet(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __mul__(self, other):
        outer = np.outer(self.grad, other.grad)
        return _Jet(
            self.value * other.value,
            self.value * other.grad + other.value * self.grad,
            other.value * self.hess + self.value * other.hess + (outer + outer.T),
        )


def _operands():
    rng = np.random.default_rng(0)
    return [
        _Jet(float(v), rng.standard_normal(_DIM), np.eye(_DIM))
        for v in rng.standard_normal(8)
    ]


_OPERANDS = _operands()


def _kernel() -> float:
    start = time.perf_counter()
    first = _OPERANDS[0]
    for _ in range(60):
        acc = first
        for jet in _OPERANDS[1:]:
            acc = acc + jet * first
    return time.perf_counter() - start


def kernel_seconds(repeats: int = 9) -> float:
    """Median time of the calibration kernel over ``repeats`` runs."""
    return statistics.median(_kernel() for _ in range(repeats))


def scaled(seconds: float, kernel_s: float, exponent: float = 1.0) -> float:
    """``seconds`` at the kernel's nominal speed. An ``exponent`` below 1
    suits work that slows down less than the kernel on a loaded host."""
    return seconds * (NOMINAL_S / kernel_s) ** exponent
