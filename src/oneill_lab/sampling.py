"""Seeded rejection sampling of admissible chart points.

Points are drawn uniformly from a box, then filtered through every guard
that applies: the chart domain of the total space, the sampling locus of
the submersion model, and the chart domain of the base evaluated at the
projected point (one guard, composed with the projection), each evaluated
on a drawn block by ``riemannian.guards_pass``.  A round draws the points
still wanted in one call, which takes the uniforms that one draw at a time
would, and keeps those that pass.  Drawing stops after ten times the
requested count; a shortfall at that cap is an error rather than a
silently smaller sample.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EmptySampleError
from .riemannian import ManifoldModel, guards_pass
from .submersion import SubmersionModel

OVERSAMPLE_FACTOR = 10


class SampleConfig(NamedTuple):
    points: int = 100
    seed: int = 42
    box: tuple = (-2.0, 2.0)


def _draw(dim: int, cfg: SampleConfig, guards) -> np.ndarray:
    lo, hi = float(cfg.box[0]), float(cfg.box[1])
    if not hi > lo:
        raise EmptySampleError(f"degenerate sampling box [{lo}, {hi}]")
    rng = np.random.default_rng(cfg.seed)
    guards = [g for g in guards if g is not None]
    out, drawn = np.empty((0, dim)), 0
    cap = OVERSAMPLE_FACTOR * cfg.points
    while drawn < cap:
        block = rng.uniform(lo, hi, size=(min(cfg.points - len(out), cap - drawn), dim))
        drawn += len(block)
        out = np.concatenate([out, block[guards_pass(guards, block)]])
        if len(out) == cfg.points:
            return out
    raise EmptySampleError(
        f"found {len(out)} admissible points of {cfg.points} requested "
        f"after {cap} draws"
    )


def sample_submersion_points(sub: SubmersionModel, cfg: SampleConfig) -> np.ndarray:
    base = sub.base.domain_guard
    projected = None if base is None else (lambda vs: base([f(vs) for f in sub.projection]))
    total = sub.total.model
    return _draw(total.dim, cfg, [total.domain_guard, sub.locus_guard, projected])


def sample_model_points(model: ManifoldModel, cfg: SampleConfig) -> np.ndarray:
    return _draw(model.dim, cfg, [model.domain_guard])
