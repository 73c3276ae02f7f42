"""Forward-mode jets carrying value, gradient, and Hessian.

:class:`ArrayJet` is the one jet of the package: a struct-of-arrays jet
(hyper-dual numbers in vectorized forward mode) with one array of values,
one of gradients and one of Hessians, whose leading batch axes broadcast.
Every model callable (metric entries, contact data, preferred and declared
frame fields, the projection, the base metric) receives the coordinate jets
of a block of sample points from :func:`seed_block`, the point axis
leading. The metric, Christoffel symbols, curvature and contact data are
evaluated once per block; the adapted frame and the first derivatives of
the fundamental tensors also run on it, batched over frame pairs and chart
components.

:class:`ScalarJet` (with :func:`constant`, :func:`variable`, :func:`seed`,
:class:`JetPoint`, :func:`deriv` and :func:`jet_eval`) is the one-point
jet kept as the reference that the tests compare ``ArrayJet`` against; no
other module of the package uses it.

Every ``ArrayJet`` operation does, element by element, the float operations
of the same ``ScalarJet`` operation in the same order and association, so
each element equals the reference result bit for bit. Sums over terms
(:func:`sum_terms`) add one term at a time in a fixed index order for the
same reason.

Hessians are stored as full dense symmetric arrays; every product rule uses
:func:`_sym_outer` so symmetry holds bit-exactly, not just to rounding.
Dimensions stay small (chart dims <= 9) so dense storage wins over any
sparse cleverness.

A jet with ``hessian=None`` is an order-1 jet: gradient only. Mixing an
order-1 jet into any operation demotes the result to order 1. This is how
derivative-of-a-computed-field work avoids paying for second derivatives it
cannot use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import RejectedInputError, SingularEvaluationError

# Reciprocal guard: denominators below this magnitude raise instead of
# overflowing to inf and poisoning every downstream tensor.
_DIV_GUARD = 1e-300


def _sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a b^T + b a^T; bit-exact symmetric because float + and * commute.
    return np.outer(a, b) + np.outer(b, a)


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.outer over the last axis, batched over the leading ones.
    return a[..., :, None] * b[..., None, :]


def _batch_sym_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = _outer(a, b)
    out += _outer(b, a)
    return out


def _power(x, n: int):
    """x**n for an integer n != 0 by left-to-right square-and-multiply: at
    most 2 log2(|n|) products, for |n| <= 3 those of x * x and (x * x) * x;
    1 / x**-n for n < 0."""
    if n < 0:
        return 1.0 / _power(x, -n)
    out = x
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def _float_pow(x, e: float) -> float:
    """Python's float power of ``x``; SingularEvaluationError where the
    result is too large for a float (Python raises OverflowError there)."""
    try:
        return float(x) ** e
    except OverflowError:
        raise SingularEvaluationError(f"fractional power {float(x)!r}**{e!r} overflows") from None


@dataclass(frozen=True, eq=False)
class ScalarJet:
    """Truncated Taylor data of a scalar function at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    @property
    def order(self) -> int:
        return 1 if self.hessian is None else 2

    # -- lifting -----------------------------------------------------------

    def _coerce(self, other) -> "ScalarJet":
        if isinstance(other, ScalarJet):
            if other.dim != self.dim:
                raise RejectedInputError(
                    f"jet dimension mismatch: {self.dim} vs {other.dim}"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return constant(float(other), self.dim, order=self.order)
        return NotImplemented  # type: ignore[return-value]

    def _result_hessian_pair(self, other: "ScalarJet"):
        # None is contagious: order-1 in, order-1 out.
        if self.hessian is None or other.hessian is None:
            return None, None
        return self.hessian, other.hessian

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ha, hb = self._result_hessian_pair(o)
        hess = None if ha is None else ha + hb
        return ScalarJet(self.value + o.value, self.gradient + o.gradient, hess)

    __radd__ = __add__

    def __neg__(self):
        hess = None if self.hessian is None else -self.hessian
        return ScalarJet(-self.value, -self.gradient, hess)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ha, hb = self._result_hessian_pair(o)
        hess = None if ha is None else ha - hb
        return ScalarJet(self.value - o.value, self.gradient - o.gradient, hess)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ha, hb = self._result_hessian_pair(o)
        grad = self.value * o.gradient + o.value * self.gradient
        if ha is None:
            hess = None
        else:
            hess = (
                o.value * ha
                + self.value * hb
                + _sym_outer(self.gradient, o.gradient)
            )
        return ScalarJet(self.value * o.value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if abs(o.value) < _DIV_GUARD:
            raise SingularEvaluationError(
                f"jet division by near-zero denominator {o.value!r}"
            )
        # u = w v  =>  w' = (u' - w v') / v,  w'' = (u'' - sym(w', v') - w v'') / v
        w_val = self.value / o.value
        w_grad = (self.gradient - w_val * o.gradient) / o.value
        ha, hb = self._result_hessian_pair(o)
        if ha is None:
            hess = None
        else:
            hess = (ha - _sym_outer(w_grad, o.gradient) - w_val * hb) / o.value
        return ScalarJet(w_val, w_grad, hess)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent):
        if isinstance(exponent, ScalarJet):
            raise RejectedInputError("jet exponents are not supported")
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            n = int(exponent)
            if n == 0:
                return constant(1.0, self.dim, order=self.order)
            return _power(self, n)
        if self.value <= 0.0:
            raise SingularEvaluationError(
                f"fractional power of non-positive base {self.value!r}"
            )
        p = float(exponent)
        v = _float_pow(self.value, p)
        dv = p * _float_pow(self.value, p - 1.0)
        grad = dv * self.gradient
        if self.hessian is None:
            hess = None
        else:
            d2v = p * (p - 1.0) * _float_pow(self.value, p - 2.0)
            hess = dv * self.hessian + d2v * np.outer(self.gradient, self.gradient)
        return ScalarJet(v, grad, hess)

    def sqrt(self) -> "ScalarJet":
        if self.value <= 0.0:
            raise SingularEvaluationError(
                f"sqrt of non-positive jet value {self.value!r}"
            )
        w = math.sqrt(self.value)
        grad = self.gradient / (2.0 * w)
        if self.hessian is None:
            hess = None
        else:
            hess = (self.hessian / 2.0 - np.outer(grad, grad)) / w
        return ScalarJet(w, grad, hess)

    def __repr__(self) -> str:  # debugging aid only
        return f"ScalarJet({self.value!r}, grad={self.gradient!r}, order={self.order})"


def constant(value: float, dim: int, order: int = 2) -> ScalarJet:
    """Jet of a constant: zero gradient, zero (or absent) Hessian."""
    hess = None if order == 1 else np.zeros((dim, dim))
    return ScalarJet(float(value), np.zeros(dim), hess)


def variable(value: float, index: int, dim: int, order: int = 2) -> ScalarJet:
    """Jet of the coordinate function ``x[index]`` seeded at ``value``."""
    if not 0 <= index < dim:
        raise RejectedInputError(f"variable index {index} out of range for dim {dim}")
    grad = np.zeros(dim)
    grad[index] = 1.0
    hess = None if order == 1 else np.zeros((dim, dim))
    return ScalarJet(float(value), grad, hess)


class JetPoint(NamedTuple):
    """A chart point with its tuple of seeded coordinate jets."""

    coords: np.ndarray
    vars: tuple
    order: int

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def seed(coords, order: int = 2) -> JetPoint:
    """Seed coordinate jets at ``coords``. Rejects empty or non-finite input."""
    arr = np.asarray(coords, dtype=float)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise RejectedInputError(f"seed expects a nonempty 1-d point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise RejectedInputError("seed coordinates must be finite")
    if order not in (1, 2):
        raise RejectedInputError(f"jet order must be 1 or 2, got {order}")
    dim = arr.shape[0]
    vs = tuple(variable(arr[i], i, dim, order) for i in range(dim))
    return JetPoint(coords=arr, vars=vs, order=order)


def seed_block(points, order: int = 2) -> tuple:
    """Coordinate jets of a block of chart points, one ``ArrayJet`` per
    coordinate: value ``(N,)``, gradient ``(N, d)`` and, for order 2, a
    broadcast zero Hessian ``(N, d, d)``. Rejects an empty block, a point of
    no coordinates, or non-finite input."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or 0 in arr.shape:
        raise RejectedInputError(
            f"seed_block expects a nonempty 2-d block of points, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise RejectedInputError("seed coordinates must be finite")
    if order not in (1, 2):
        raise RejectedInputError(f"jet order must be 1 or 2, got {order}")
    n, dim = arr.shape
    eye = np.eye(dim)
    hess = None if order == 1 else np.broadcast_to(np.zeros((dim, dim)), (n, dim, dim))
    return tuple(
        ArrayJet(arr[:, i].copy(), np.broadcast_to(eye[i], (n, dim)), hess)
        for i in range(dim)
    )


def deriv(jet: ScalarJet, index: int) -> ScalarJet:
    """Partial derivative of an order-2 jet as an order-1 jet.

    The derivative's gradient is the corresponding Hessian row; its own
    second derivatives are unknown, hence the demotion.
    """
    if jet.hessian is None:
        raise RejectedInputError("deriv needs an order-2 jet")
    if not 0 <= index < jet.dim:
        raise RejectedInputError(f"deriv index {index} out of range for dim {jet.dim}")
    return ScalarJet(float(jet.gradient[index]), jet.hessian[index].copy(), None)


def jet_eval(f, coords, order: int = 2) -> ScalarJet:
    """Evaluate ``f(vars) -> jet|float`` on freshly seeded coordinates."""
    p = seed(coords, order=order)
    out = f(p.vars)
    return out if isinstance(out, ScalarJet) else constant(float(out), p.dim, order=order)


class ArrayJet:
    """Jets of a batch of scalar functions at one point, as three arrays.

    ``value`` has the batch shape ``(...)``, ``gradient`` ``(..., d)`` and
    ``hessian`` ``(..., d, d)``, or ``None`` for an order-1 jet. Batch axes
    broadcast as numpy arrays do, and indexing addresses batch axes only.
    Arithmetic mirrors :class:`ScalarJet` operation for operation (the
    same guards and error classes, the same demotion to order 1), so every
    element is bit-identical to the ``ScalarJet`` result.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian=None):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian

    @property
    def dim(self) -> int:
        return self.gradient.shape[-1]

    @property
    def order(self) -> int:
        return 1 if self.hessian is None else 2

    @property
    def shape(self) -> tuple:
        return np.shape(self.value)

    def __getitem__(self, index) -> "ArrayJet":
        if not isinstance(index, tuple):
            index = (index,)
        hess = None if self.hessian is None else self.hessian[index + (slice(None),) * 2]
        return ArrayJet(self.value[index], self.gradient[index + (slice(None),)], hess)

    def reshape(self, shape) -> "ArrayJet":
        shape = tuple(shape)
        d = self.dim
        hess = None if self.hessian is None else self.hessian.reshape(shape + (d, d))
        return ArrayJet(self.value.reshape(shape), self.gradient.reshape(shape + (d,)), hess)

    def first_order(self) -> "ArrayJet":
        """The same jets without their Hessians."""
        return ArrayJet(self.value, self.gradient, None)

    def partials(self) -> "ArrayJet":
        """Order-1 jets of all first partials, on a new last batch axis:
        element ``[..., i]`` is :func:`deriv` of element ``[...]`` in ``i``."""
        if self.hessian is None:
            raise RejectedInputError("partials need order-2 jets")
        return ArrayJet(self.gradient, self.hessian, None)

    # -- lifting -----------------------------------------------------------

    def _coerce(self, other) -> "ArrayJet":
        if isinstance(other, ArrayJet):
            if other.dim != self.dim:
                raise RejectedInputError(
                    f"jet dimension mismatch: {self.dim} vs {other.dim}"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            d = self.dim
            hess = None if self.hessian is None else np.zeros((d, d))
            return ArrayJet(float(other), np.zeros(d), hess)
        return NotImplemented  # type: ignore[return-value]

    def _result_hessian_pair(self, other: "ArrayJet"):
        if self.hessian is None or other.hessian is None:
            return None, None
        return self.hessian, other.hessian

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ha, hb = self._result_hessian_pair(o)
        hess = None if ha is None else ha + hb
        return ArrayJet(self.value + o.value, self.gradient + o.gradient, hess)

    __radd__ = __add__

    def __neg__(self):
        hess = None if self.hessian is None else -self.hessian
        return ArrayJet(-self.value, -self.gradient, hess)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ha, hb = self._result_hessian_pair(o)
        hess = None if ha is None else ha - hb
        return ArrayJet(self.value - o.value, self.gradient - o.gradient, hess)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        sv, ov = np.asarray(self.value), np.asarray(o.value)
        ha, hb = self._result_hessian_pair(o)
        # the sums run in place, in the order and association of ScalarJet
        grad = sv[..., None] * o.gradient
        grad += ov[..., None] * self.gradient
        if ha is None:
            hess = None
        else:
            hess = ov[..., None, None] * ha
            hess += sv[..., None, None] * hb
            hess += _batch_sym_outer(self.gradient, o.gradient)
        return ArrayJet(sv * ov, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._over_number(float(other))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        ov = np.asarray(o.value)
        if np.any(np.abs(ov) < _DIV_GUARD):
            raise SingularEvaluationError(
                "jet division by near-zero denominator "
                f"{float(ov[np.abs(ov) < _DIV_GUARD].flat[0])!r}"
            )
        w_val = np.asarray(self.value / ov)
        w_grad = (self.gradient - w_val[..., None] * o.gradient) / ov[..., None]
        ha, hb = self._result_hessian_pair(o)
        if ha is None:
            hess = None
        else:
            hess = (
                ha
                - _batch_sym_outer(w_grad, o.gradient)
                - w_val[..., None, None] * hb
            ) / ov[..., None, None]
        return ArrayJet(w_val, w_grad, hess)

    def _over_number(self, c: float) -> "ArrayJet":
        """The quotient rule of ``__truediv__`` by the constant jet of ``c``,
        without building that jet. Its value's products with the zero
        gradient and Hessian are kept as ``w * 0.0``, so that -0.0,
        infinities and NaN come out bit for bit as from the zero jets, and
        the gradient is laid out in C order, as a difference with a full
        zero product is. The symmetric outer product takes the zero
        gradient itself: built from ``w' * 0.0`` by a broadcast sum, it
        would keep the other NaN where two NaNs meet."""
        if abs(c) < _DIV_GUARD:
            raise SingularEvaluationError(f"jet division by near-zero denominator {c!r}")
        w_val = np.asarray(np.asarray(self.value) / c)
        w_grad = np.subtract(self.gradient, w_val[..., None] * 0.0, order="C") / c
        if self.hessian is None:
            return ArrayJet(w_val, w_grad, None)
        sym = _batch_sym_outer(w_grad, np.zeros(self.dim))
        return ArrayJet(w_val, w_grad, (self.hessian - sym - w_val[..., None, None] * 0.0) / c)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, exponent):
        if isinstance(exponent, ArrayJet):
            raise RejectedInputError("jet exponents are not supported")
        if isinstance(exponent, (int, np.integer)) or (
            isinstance(exponent, float) and exponent.is_integer()
        ):
            n = int(exponent)
            if n == 0:
                shape, d = self.shape, self.dim
                hess = None if self.hessian is None else np.zeros(shape + (d, d))
                return ArrayJet(np.ones(shape), np.zeros(shape + (d,)), hess)
            return _power(self, n)
        v = np.asarray(self.value)
        if np.any(v <= 0.0):
            raise SingularEvaluationError(
                f"fractional power of non-positive base {float(v[v <= 0.0].flat[0])!r}"
            )
        p = float(exponent)
        # Python's float power, element by element, as ScalarJet computes
        # it; numpy's power may take a vector path that rounds differently.
        fpow = np.vectorize(_float_pow, otypes=[float])
        dv = p * fpow(v, p - 1.0)
        grad = dv[..., None] * self.gradient
        if self.hessian is None:
            hess = None
        else:
            d2v = p * (p - 1.0) * fpow(v, p - 2.0)
            hess = dv[..., None, None] * self.hessian + d2v[..., None, None] * _outer(
                self.gradient, self.gradient
            )
        return ArrayJet(fpow(v, p), grad, hess)

    def sqrt(self) -> "ArrayJet":
        v = np.asarray(self.value)
        if np.any(v <= 0.0):
            raise SingularEvaluationError(
                f"sqrt of non-positive jet value {float(v[v <= 0.0].flat[0])!r}"
            )
        w = np.sqrt(v)
        grad = self.gradient / (2.0 * w)[..., None]
        if self.hessian is None:
            hess = None
        else:
            hess = (self.hessian / 2.0 - _outer(grad, grad)) / w[..., None, None]
        return ArrayJet(w, grad, hess)

    def __repr__(self) -> str:  # debugging aid only
        return f"ArrayJet(shape={self.shape}, dim={self.dim}, order={self.order})"


def stack(jets, axis: int = 0) -> ArrayJet:
    """One ArrayJet from a sequence of ArrayJets of one shape and dimension;
    the sequence becomes the new batch axis ``axis`` (>= 0). The result is
    order 2 only if every element is."""
    if not jets:
        raise RejectedInputError("stack needs at least one jet")
    if any(j.dim != jets[0].dim for j in jets):
        raise RejectedInputError("jet dimension mismatch in stack")
    hess = None
    if all(j.hessian is not None for j in jets):
        hess = np.stack([j.hessian for j in jets], axis=axis)
    return ArrayJet(
        np.stack([j.value for j in jets], axis=axis),
        np.stack([j.gradient for j in jets], axis=axis),
        hess,
    )


def concat(jets, axis: int = 0) -> ArrayJet:
    """Join ArrayJets along an existing batch axis (``axis`` >= 0)."""
    hess = None
    if all(j.hessian is not None for j in jets):
        hess = np.concatenate([j.hessian for j in jets], axis=axis)
    return ArrayJet(
        np.concatenate([j.value for j in jets], axis=axis),
        np.concatenate([j.gradient for j in jets], axis=axis),
        hess,
    )


def sum_terms(terms: ArrayJet, axes) -> ArrayJet:
    """Sum ``terms`` over the batch axes ``axes``, one term at a time.

    The terms are taken in row-major order of ``axes`` and added as
    ``acc = t0``, then ``acc = acc + t1``, and so on, which is what a loop
    of ``ScalarJet`` additions does. The sum is the last row of
    ``np.add.accumulate``, which runs exactly that recurrence; ``np.sum``
    would not, since its pairwise summation regroups the terms.
    """
    nb = np.ndim(terms.value)
    axes = tuple(a % nb for a in axes)
    order = axes + tuple(a for a in range(nb) if a not in axes)
    parts = [terms.value, terms.gradient]
    if terms.hessian is not None:
        parts.append(terms.hessian)
    out = []
    for arr in parts:
        moved = arr.transpose(order + tuple(range(nb, arr.ndim)))
        flat = moved.reshape((-1,) + moved.shape[len(axes):])
        if np.may_share_memory(flat, arr):
            flat = flat.copy()
        out.append(np.add.accumulate(flat, axis=0, out=flat)[-1])  # in place, in a copy
    return ArrayJet(out[0], out[1], out[2] if len(out) == 3 else None)
