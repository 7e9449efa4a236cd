"""The cells of a box ``EventGrid.add_subscription`` returns."""

from itertools import product


def box_cells(box):
    """A box of slices (``()``: no cell) as its cell indices, C order."""
    if not box:
        return []
    return list(product(*(range(axis.start, axis.stop) for axis in box)))
