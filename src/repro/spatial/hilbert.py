"""Hilbert space-filling curve encoding in N dimensions.

The Hilbert-packed R-tree baseline (Kamel & Faloutsos, VLDB 1994 —
reference [8] of the paper) orders rectangle centers along a Hilbert
curve before packing leaves bottom-up.  This module provides the
required encoding: mapping an N-dimensional integer lattice point to
its (scalar) index along the Hilbert curve.

The transformation follows John Skilling, *Programming the Hilbert
curve* (AIP Conf. Proc. 707, 2004): coordinates are converted in place
to the "transposed" Hilbert representation via Gray-code undo steps,
after which the bits are interleaved into a single integer.  It is
exact for any number of dimensions and bits-per-dimension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import finite_frame

__all__ = ["hilbert_index", "hilbert_indices", "quantize_to_lattice"]


def hilbert_index(coords: Sequence[int], bits: int) -> int:
    """Index along the Hilbert curve of an N-d lattice point.

    Parameters
    ----------
    coords:
        Non-negative integer coordinates, each < ``2**bits``.
    bits:
        Bits of precision per dimension (curve order).

    Returns
    -------
    int
        A value in ``[0, 2**(bits * len(coords)))``; nearby points on
        the curve are nearby in space (the converse holds usually, which
        is all bulk-loading needs).
    """
    x = [int(c) for c in coords]
    ndim = len(x)
    if ndim == 0:
        raise ValueError("need at least one coordinate")
    if bits <= 0:
        raise ValueError("bits must be positive")
    for c in x:
        if c < 0 or c >= (1 << bits):
            raise ValueError(
                f"coordinate {c} out of range for {bits}-bit lattice"
            )

    # -- Skilling's inverse transform: axes -> transposed Hilbert ---------
    m = 1 << (bits - 1)
    # Inverse undo of the Gray-code walk.
    q = m
    while q > 1:
        p = q - 1
        for i in range(ndim):
            if x[i] & q:
                x[0] ^= p  # invert low bits of x[0]
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[ndim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(ndim):
        x[i] ^= t

    # -- interleave the transposed representation into one integer --------
    result = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(ndim):
            result = (result << 1) | ((x[i] >> bit) & 1)
    return result


def hilbert_indices(points: np.ndarray, bits: int) -> np.ndarray:
    """Hilbert index of every row of an integer ``(k, N)`` array."""
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    return np.asarray(
        [hilbert_index(row, bits) for row in points.tolist()], dtype=object
    )


def quantize_to_lattice(
    values: np.ndarray, bits: int
) -> np.ndarray:
    """Map real-valued rows onto the ``2**bits`` integer lattice.

    Each dimension is scaled independently over its own [min, max]
    range; constant dimensions map to lattice coordinate 0.  Non-finite
    values (centers of unbounded rectangles never occur here, but guard
    anyway) are clipped into the frame before scaling.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError("values must be a 2-D array")
    lo, hi = finite_frame(values)
    span = np.where(hi > lo, hi - lo, 1.0)
    clipped = np.clip(values, lo, hi)
    top = (1 << bits) - 1
    lattice = np.floor((clipped - lo) / span * top + 0.5)
    return np.clip(lattice, 0, top).astype(np.int64)
