"""Exception hierarchy for the verification engine.

Every precondition failure raises a subclass of :class:`OneillLabError` so
callers can distinguish "the input was bad" from "the computation broke"
without string matching.
"""

from __future__ import annotations


class OneillLabError(Exception):
    """Base class for all package errors."""


class RejectedInputError(OneillLabError):
    """Input violates a documented precondition (shape, finiteness, case)."""


class SingularEvaluationError(OneillLabError):
    """A jet operation hit a singular point (division by ~0, sqrt of <=0)."""


class OutOfDomainError(OneillLabError):
    """Evaluation point falls outside a model's declared chart domain."""


class DegenerateMetricError(OneillLabError):
    """Metric matrix is not positive definite at the evaluation point."""


class DegenerateFrameError(OneillLabError):
    """Declared spanning fields fail to produce an orthonormal frame."""


class DegeneratePlaneError(OneillLabError):
    """Sectional curvature requested for a (near-)degenerate 2-plane."""


class EmptySampleError(OneillLabError):
    """Rejection sampling exhausted its budget without accepting a point."""


class ModelLoadError(OneillLabError):
    """A model name or file could not be resolved into a usable model."""
