"""Numerical verification lab for anti-invariant Riemannian submersions
from Sasakian space forms.

Layers, bottom up: jets (forward-mode AD), riemannian (metric, connection,
curvature), contact (almost-contact structure and space-form checks),
submersion (models, frames, O'Neill tensors), invariants (the per-point
analysis record: block curvatures and identity residuals), theorems
(inequality catalog and scans), report/cli (deterministic JSON verdicts).
"""

__version__ = "0.1.0"
