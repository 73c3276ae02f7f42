"""The one way into the per-point pipeline for a test point: the point's
slice of the total space's block data, here a block of the one point."""

import numpy as np

from oneill_lab.contact import space_form_data


def point_state(sub, p):
    """The slice of ``sub``'s total-space data at the point ``p``."""
    return space_form_data(sub.total, np.asarray(p, dtype=float)[None])[0]
