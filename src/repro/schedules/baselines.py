"""Baseline families: shearsort and the broken wire-less row-major variant.

Shearsort is the registry's canonical *sided* family: the step list depends on the mesh side, so instances are named in
spec syntax — ``shearsort[side=8]`` — and the side is part of every
name-keyed identity (compile cache, campaign fingerprints).

The wire-less row-major variant comes with its demonstrating input,
:func:`smallest_column_adversary`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.phases import (
    col_even_bubble,
    col_odd_bubble,
    row_even_bubble,
    row_odd_bubble,
)
from repro.core.schedule import FORWARD, REVERSE, LineOp, Schedule, Step
from repro.errors import DimensionError
from repro.schedules.registry import ScheduleFamily, spec_name

__all__ = [
    "shearsort_phases",
    "shearsort_step_count",
    "build_shearsort",
    "build_row_major_no_wrap",
    "smallest_column_adversary",
    "BASELINE_FAMILIES",
]


def shearsort_phases(side: int) -> int:
    """Number of row phases: ``ceil(log2(side)) + 1``."""
    if side < 2:
        raise DimensionError(f"side must be >= 2, got {side}")
    return math.ceil(math.log2(side)) + 1


def shearsort_step_count(side: int) -> int:
    """Length of the shearsort schedule in mesh steps."""
    phases = shearsort_phases(side)
    return (2 * phases - 1) * side


def build_shearsort(*, side: int) -> Schedule:
    """Build the shearsort schedule for a concrete mesh side.

    Alternately sort all rows snake-wise and all columns,
    ``ceil(log2(side)) + 1`` row phases in total; by the classic 0-1
    argument the grid is then in snakelike order.  Each phase is expressed
    in the comparator IR as ``side`` odd-even transposition steps
    (alternating offsets), so one shearsort step costs exactly one mesh
    step and the cost model matches the paper's five algorithms.  The total
    length is ``(2 * ceil(log2(side)) + 1) * side`` — Θ(sqrt(N) log N).

    The schedule repeats cyclically, which is harmless: the snakelike
    sorted grid is a fixed point of every step.
    """
    if side < 2:
        raise DimensionError(f"side must be >= 2, got {side}")
    steps: list[Step] = []
    phases = shearsort_phases(side)
    for phase in range(phases):
        # Row phase: sort paper-odd rows ascending, paper-even rows
        # descending (snake direction), via `side` transposition steps.
        for j in range(side):
            steps.append(
                Step(
                    LineOp("row", j % 2, FORWARD, "odd"),
                    LineOp("row", j % 2, REVERSE, "even"),
                )
            )
        if phase < phases - 1:
            # Column phase: sort every column top-down.
            for j in range(side):
                steps.append(Step(LineOp("col", j % 2, FORWARD, "all")))
    return Schedule(
        name=spec_name("shearsort", side=side),
        steps=tuple(steps),
        order="snake",
        metadata={
            "family": "shearsort",
            "topology": "square",
            "side": side,
            "params": {"side": side},
        },
    )


def build_row_major_no_wrap() -> Schedule:
    """The first row-major algorithm with the wrap-around comparisons removed.

    Not a sorting algorithm — Section 1's motivating counterexample: column
    weights are invariant under all four of its steps except the row
    transpositions, which never move values past the column-1/column-2n
    boundary, so the smallest-column adversary is pinned forever.
    """
    return Schedule(
        name="row_major_no_wrap",
        steps=(
            Step(row_odd_bubble()),
            Step(col_odd_bubble()),
            Step(row_even_bubble()),
            Step(col_even_bubble()),
        ),
        order="row_major",
        requires_even_side=True,
        metadata={"family": "broken-baseline", "topology": "square"},
    )


def smallest_column_adversary(side: int, *, column: int = 0) -> np.ndarray:
    """The paper's adversarial input: the smallest ``side`` values down one
    column, the rest in row-major order elsewhere.

    Section 1: "Suppose that we did not have them and the smallest 2n
    numbers were initially stored by the cells in column 1.  Then the
    smallest 2n numbers will be forced to stay in the same column at each
    step and we would never get the desired ordering."  With wrap-around
    wires this is (close to) the worst case of Corollary 1; without them
    it can never be sorted into row-major order.
    """
    if side < 2:
        raise DimensionError(f"side must be >= 2, got {side}")
    if not 0 <= column < side:
        raise DimensionError(f"column {column} out of range for side {side}")
    grid = np.empty((side, side), dtype=np.int64)
    rest = iter(range(side, side * side))
    for r in range(side):
        for c in range(side):
            grid[r, c] = r if c == column else next(rest)
    return grid


BASELINE_FAMILIES: tuple[ScheduleFamily, ...] = (
    ScheduleFamily(
        name="shearsort",
        builder=build_shearsort,
        topology="square",
        sided=True,
        description="classic Θ(sqrt(N) log N) shearsort contrast baseline",
        certified_sides=(2, 3, 4),
    ),
    ScheduleFamily(
        name="row_major_no_wrap",
        builder=build_row_major_no_wrap,
        topology="square",
        requires_even_side=True,
        description="row-major algorithm without wrap-around wires (broken on purpose)",
        pathological=True,
    ),
)
