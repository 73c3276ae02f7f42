"""The ways into the block pipeline for test points: a block of one point,
the analyses of a sample one block of points at a time as the CLI makes
them, and each point's view of a block."""

import numpy as np

from oneill_lab.contact import space_form_data
from oneill_lab.invariants import analyze_point
from oneill_lab.riemannian import point_blocks
from oneill_lab.submersion import PointCalculus


def point_block(sub, p):
    """``sub``'s total-space data on a block of the one point ``p``."""
    return space_form_data(sub.total, np.asarray(p, dtype=float)[None])


def point_calc(sub, p):
    """The view of ``p`` in the ``PointCalculus`` of its block of one."""
    return PointCalculus(sub, point_block(sub, p))[0]


def point_analysis(sub, p):
    """The view of ``p`` in the analysis of its block of one."""
    return analyze_point(sub, point_block(sub, p))[0]


def analysis_blocks(sub, pts):
    """The analyses of the sample ``pts``, one per block of points as the
    CLI cuts them."""
    return [
        analyze_point(sub, space_form_data(sub.total, block))
        for block in point_blocks(np.asarray(pts, dtype=float), sub.total.model.dim, 5)
    ]


def point_views(blocks):
    """Each point's view of the block analyses, in sample order."""
    return [block[k] for block in blocks for k in range(len(block.calc.point))]
