"""Pure-Python reference executor (the semantic oracle).

This executor interprets a :class:`~repro.core.schedule.Schedule` one
comparator at a time using the explicit comparator lists from
:func:`repro.core.schedule.comparator_pairs` (square meshes) or
:func:`repro.analysis.schedule_check.op_comparators` (rectangular meshes,
including ``1 x N`` linear arrays).  It is deliberately slow and simple —
its role is to pin down the intended semantics so the vectorized engine
and the processor-level mesh machine can be property-tested against it on
small meshes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.algorithms import check_side
from repro.core.orders import is_sorted_grid
from repro.core.schedule import Schedule, comparator_pairs, validate_schedule
from repro.errors import DimensionError

__all__ = ["ReferenceMachine"]

Grid = list[list[int]]


def _to_grid(array: np.ndarray | Sequence[Sequence[int]]) -> Grid:
    arr = np.asarray(array)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(
            "reference machine requires a non-empty rectangular grid, "
            f"got shape {arr.shape}"
        )
    return [list(map(int, row)) for row in arr]


class ReferenceMachine:
    """Cell-by-cell interpreter for a schedule on a single grid.

    Square grids keep the historical validation path (:func:`check_side` +
    :func:`validate_schedule`); rectangular grids — including ``1 x N``
    linear arrays — are validated by the static schedule verifier and
    expanded with its rectangular comparator enumeration.
    """

    def __init__(self, schedule: Schedule, grid: np.ndarray | Sequence[Sequence[int]]):
        self.grid: Grid = _to_grid(grid)
        self.rows = len(self.grid)
        self.cols = len(self.grid[0])
        self.schedule = schedule
        self.t = 0
        # Pre-expand each cycle step into its comparator list.
        if self.rows == self.cols:
            self.side = self.rows
            check_side(schedule, self.side)
            validate_schedule(schedule, self.side)
            self._pairs_per_step = [
                [pair for op in step for pair in comparator_pairs(op, self.side)]
                for step in schedule.steps
            ]
        else:
            from repro.analysis.schedule_check import check_schedule, op_comparators

            check_schedule(schedule, self.rows, self.cols).raise_for_structural()
            self._pairs_per_step = [
                [pair for op in step for pair in op_comparators(op, self.rows, self.cols)]
                for step in schedule.steps
            ]

    def step(self) -> int:
        """Execute the next schedule step on the stored grid.

        Returns the number of swaps the step performed (observability
        callers report it; others may ignore the return value).
        """
        self.t += 1
        pairs = self._pairs_per_step[(self.t - 1) % len(self._pairs_per_step)]
        g = self.grid
        swaps = 0
        for (lr, lc), (hr, hc) in pairs:
            a, b = g[lr][lc], g[hr][hc]
            if a > b:
                g[lr][lc], g[hr][hc] = b, a
                swaps += 1
        return swaps

    def run(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.step()

    def as_array(self) -> np.ndarray:
        return np.array(self.grid, dtype=np.int64)

    def is_sorted(self) -> bool:
        if self.rows == self.cols:
            return bool(is_sorted_grid(self.as_array(), self.schedule.order))
        from repro.rect.orders import rect_is_sorted

        return bool(rect_is_sorted(self.as_array(), self.schedule.order))

