"""The 1-D odd-even transposition sort (bubble sort) on a linear array.

This is the substrate the paper generalizes (Section 1): cells are numbered
``1 .. N`` left to right; at odd steps cells (1,2), (3,4), ... compare and
swap so the smaller value lands in the leftmost cell; at even steps cells
(2,3), (4,5), ... do the same.  Definition 1's *reverse* bubble sort stores
the smaller value in the rightmost cell instead.

The sorter itself is the registry family ``"odd_even"`` — a linear-topology
schedule executed as a ``1 × N`` mesh by the shared backend/driver stack
(``run_sort("rect", build_odd_even(), array.reshape(..., 1, N))``).  This
module keeps :func:`transposition_step`, the semantic spec of one step, and
:func:`worst_case_input`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError

__all__ = ["transposition_step", "worst_case_input"]


def transposition_step(
    array: np.ndarray, t: int, *, direction: int = 1
) -> None:
    """Apply paper step ``t`` (1-based) of the (reverse) bubble sort in place.

    Odd ``t`` pairs cells (1,2),(3,4),...; even ``t`` pairs (2,3),(4,5),....
    ``direction=+1`` stores the smaller value at the lower index (ordinary
    bubble sort); ``direction=-1`` stores it at the higher index (reverse
    bubble sort, Definition 1).
    """
    if t < 1:
        raise DimensionError(f"step times are 1-based, got {t}")
    if direction not in (1, -1):
        raise DimensionError(f"direction must be +1 or -1, got {direction}")
    n = array.shape[-1]
    offset = (t - 1) % 2
    p = (n - offset) // 2
    if p <= 0:
        return
    a = array[..., offset : offset + 2 * p : 2]
    b = array[..., offset + 1 : offset + 2 * p : 2]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    if direction == 1:
        a[...] = lo
        b[...] = hi
    else:
        a[...] = hi
        b[...] = lo


def worst_case_input(n: int) -> np.ndarray:
    """An input on which the bubble sort needs close to the full N steps.

    Placing the smallest element in the rightmost cell forces at least
    ``N - 1`` steps, since the element moves at most one cell per step.
    """
    if n < 1:
        raise DimensionError(f"n must be positive, got {n}")
    out = np.arange(1, n + 1, dtype=np.int64)
    out[-1] = 0
    return out
