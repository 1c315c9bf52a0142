"""Extension: the five algorithms on rectangular ``rows x cols`` meshes.

The paper fixes a square ``sqrt(N) x sqrt(N)`` mesh, but nothing in the
step definitions requires it: the snakelike algorithms run on any
rectangle, and the row-major algorithms on any rectangle with an even
number of columns (the wrap-around constraint transfers to the column
count).  The E-RECT experiment confirms the Θ(N) average-case behaviour
persists across aspect ratios.  This package holds the rectangular target
orders; runs go through the ``"rect"`` backend of :mod:`repro.backends`.
"""

from repro.rect.orders import (
    rect_is_sorted,
    rect_rank_grid,
    rect_target_grid,
    validate_rect,
)

__all__ = [
    "rect_is_sorted",
    "rect_rank_grid",
    "rect_target_grid",
    "validate_rect",
]
