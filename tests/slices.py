"""The ways into the block pipeline for test points: a block of one point,
the analyses of a sample one block of points at a time as the CLI makes
them, the theorem tables of a scan's blocks, and a point's rows of a
block's theorem table. Every record is a block; a test reads point k as
``[k]`` of the block's arrays."""

import numpy as np

from oneill_lab.contact import space_form_data
from oneill_lab.invariants import analyze_point, identity_residuals
from oneill_lab.riemannian import point_blocks
from oneill_lab.submersion import PointCalculus
from oneill_lab.theorems import plan_scan, scan_block


def point_block(sub, p):
    """``sub``'s total-space data on a block of the one point ``p``."""
    return space_form_data(sub.total, np.asarray(p, dtype=float)[None])


def calc_of_one(sub, p):
    """The ``PointCalculus`` of the block of the one point ``p``."""
    return PointCalculus(sub, point_block(sub, p))


def block_of_one(sub, p):
    """The analysis of the block of the one point ``p``."""
    return analyze_point(sub, point_block(sub, p))


def blocks_of_one(sub, pts):
    """The analyses of the points ``pts``, each as a block of one."""
    return [block_of_one(sub, p) for p in pts]


def point_residuals(sub, p):
    """The identity residuals of ``p``, computed on its block of one."""
    return {key: val[0] for key, val in identity_residuals(block_of_one(sub, p)).items()}


def analysis_blocks(sub, pts):
    """The analyses of the sample ``pts``, one per block of points as the
    CLI cuts them."""
    return [
        analyze_point(sub, space_form_data(sub.total, block))
        for block in point_blocks(np.asarray(pts, dtype=float), sub.total.model.dim, 5)
    ]


def scan_tables(blocks, theorem_ids=None, probe_mode="first", rng=None):
    """Each block's {theorem_id: TheoremTable}, in block order, under the
    plan that ``scan_theorems`` makes of the same arguments: the tables its
    entries are reduced from."""
    sizes = [len(block.calc.point) for block in blocks]
    plan = plan_scan(blocks[0].calc.sub, sum(sizes), theorem_ids, probe_mode, rng)
    starts = np.cumsum([0] + sizes)
    return [scan_block(block, plan, start) for block, start in zip(blocks, starts)]


def table_rows(table, k=0):
    """Point k's rows of a block's theorem table, flattened in (probe,
    variant) order, with a variant name and probe vectors per row."""
    names = table.variant
    width = len(names) if names else 1

    def rows(a):
        return None if a is None else a[k].reshape(-1)

    def probes(a):
        return None if a is None else np.repeat(a[k], width, axis=0)

    return table._replace(
        point=table.point[k],
        variant=names * len(table.slack[k]) if names else None,
        probe_vertical=probes(table.probe_vertical),
        probe_horizontal=probes(table.probe_horizontal),
        lhs=rows(table.lhs),
        rhs=rows(table.rhs),
        slack=rows(table.slack),
        holds=rows(table.holds),
        equality=rows(table.equality),
        equality_defect=rows(table.equality_defect),
    )
