"""Seeded rejection sampling of admissible chart points.

Points are drawn uniformly from a box, then filtered through every guard
that applies: the chart domain of the total space, the sampling locus of
the submersion model, and the chart domain of the base evaluated at the
projected point.  Drawing stops after ten times the requested count; a
shortfall at that cap is an error rather than a silently smaller sample.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EmptySampleError
from .riemannian import ManifoldModel
from .submersion import SubmersionModel

OVERSAMPLE_FACTOR = 10


class SampleConfig(NamedTuple):
    points: int = 100
    seed: int = 42
    box: tuple = (-2.0, 2.0)


def _guards_pass(sub: SubmersionModel, pt: np.ndarray) -> bool:
    total = sub.total.model
    if total.domain_guard is not None and not total.domain_guard(pt):
        return False
    if sub.locus_guard is not None and not sub.locus_guard(pt):
        return False
    if sub.base.domain_guard is not None:
        base_pt = np.array([f(pt) for f in sub.projection], dtype=float)
        if not sub.base.domain_guard(base_pt):
            return False
    return True


def _draw(dim: int, cfg: SampleConfig, accept) -> np.ndarray:
    lo, hi = float(cfg.box[0]), float(cfg.box[1])
    if not hi > lo:
        raise EmptySampleError(f"degenerate sampling box [{lo}, {hi}]")
    rng = np.random.default_rng(cfg.seed)
    out = []
    cap = OVERSAMPLE_FACTOR * cfg.points
    for _ in range(cap):
        pt = rng.uniform(lo, hi, size=dim)
        if accept(pt):
            out.append(pt)
            if len(out) == cfg.points:
                return np.array(out)
    raise EmptySampleError(
        f"found {len(out)} admissible points of {cfg.points} requested "
        f"after {cap} draws"
    )


def sample_submersion_points(sub: SubmersionModel, cfg: SampleConfig) -> np.ndarray:
    return _draw(sub.total.model.dim, cfg, lambda pt: _guards_pass(sub, pt))


def sample_model_points(model: ManifoldModel, cfg: SampleConfig) -> np.ndarray:
    def accept(pt):
        return model.domain_guard is None or model.domain_guard(pt)

    return _draw(model.dim, cfg, accept)
