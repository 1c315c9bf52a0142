"""Intermediate representation for mesh comparator schedules.

The five algorithms of the paper (and the shearsort baseline) are *oblivious*
comparison-exchange procedures: at each step, a fixed set of disjoint cell
pairs compare their contents and place the smaller value at a fixed end of
the pair.  This module provides a tiny declarative IR for such procedures:

* :class:`LineOp` — one odd or even transposition step applied along rows or
  columns, restricted to a parity class of lines, with a direction (ordinary
  bubble stores the smaller value at the lower index; *reverse* bubble,
  Definition 1 of the paper, stores it at the higher index);
* :class:`WrapOp` — the wrap-around comparisons of the row-major algorithms:
  for each ``h``, cell ``(h, last column)`` against ``(h+1, first column)``
  with the smaller value kept in column ``last``;
* :class:`PairOp` — a single compare-exchange between two adjacent cells
  (the building block of generated comparator networks such as the random
  sorting networks of Angel–Holroyd–Romik–Virág, where each step fires one
  nearest-neighbour comparator);
* :class:`Step` — a set of ops executed simultaneously (they must touch
  disjoint cells; :func:`validate_schedule` checks this for a concrete side);
* :class:`Schedule` — a named sequence of steps, executed cyclically.

Executors (the :mod:`repro.backends` kernels, :mod:`repro.core.reference`,
:mod:`repro.mesh.machine`) consume this IR, which guarantees all of them
implement byte-identical semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Literal

import numpy as np

from repro.errors import DimensionError, ScheduleValidationError

__all__ = [
    "Axis",
    "Lines",
    "LineOp",
    "WrapOp",
    "PairOp",
    "Op",
    "Step",
    "Schedule",
    "line_indices",
    "pair_count",
    "touched_cells",
    "validate_schedule",
    "comparator_pairs",
]

Axis = Literal["row", "col"]
Lines = Literal["all", "odd", "even"]

#: Direction constant: smaller value stored at the lower index (left / top).
FORWARD = 1
#: Direction constant: smaller value stored at the higher index (reverse bubble).
REVERSE = -1


def line_indices(lines: Lines, side: int) -> np.ndarray:
    """0-based indices of the selected lines.

    Parity follows the paper's 1-based numbering: ``"odd"`` selects paper
    rows/columns 1, 3, 5, ... which are 0-based indices 0, 2, 4, ...
    """
    if lines == "all":
        return np.arange(side)
    if lines == "odd":
        return np.arange(0, side, 2)
    if lines == "even":
        return np.arange(1, side, 2)
    raise DimensionError(f"unknown line selector {lines!r}")


def lines_slice(lines: Lines) -> slice:
    """The selected lines as a basic slice (so engines can take views)."""
    if lines == "all":
        return slice(None)
    if lines == "odd":
        return slice(0, None, 2)
    if lines == "even":
        return slice(1, None, 2)
    raise DimensionError(f"unknown line selector {lines!r}")


def pair_count(offset: int, side: int) -> int:
    """Number of compare-exchange pairs in a line of length ``side``.

    An odd step (``offset=0``) pairs cells (0,1), (2,3), ...; an even step
    (``offset=1``) pairs (1,2), (3,4), ...
    """
    if offset not in (0, 1):
        raise DimensionError(f"offset must be 0 or 1, got {offset}")
    return max((side - offset) // 2, 0)


@dataclass(frozen=True)
class LineOp:
    """One transposition step along all selected rows or columns.

    Parameters
    ----------
    axis:
        ``"row"`` — comparisons between horizontally adjacent cells within
        each selected row; ``"col"`` — between vertically adjacent cells
        within each selected column.
    offset:
        0 for the paper's *odd* step (pairs (1,2),(3,4),... in 1-based
        numbering), 1 for the *even* step (pairs (2,3),(4,5),...).
    direction:
        ``+1`` stores the smaller value at the lower index (ordinary bubble
        sort: left for rows, top for columns); ``-1`` is the reverse bubble
        sort of Definition 1 (smaller value at the higher index).
    lines:
        Which lines participate: ``"all"``, ``"odd"`` (paper-odd: 1-based
        1,3,5,...), or ``"even"``.
    """

    axis: Axis
    offset: int
    direction: int
    lines: Lines = "all"

    def __post_init__(self) -> None:
        if self.axis not in ("row", "col"):
            raise ScheduleValidationError(f"bad axis {self.axis!r}")
        if self.offset not in (0, 1):
            raise ScheduleValidationError(f"bad offset {self.offset!r}")
        if self.direction not in (FORWARD, REVERSE):
            raise ScheduleValidationError(f"bad direction {self.direction!r}")
        if self.lines not in ("all", "odd", "even"):
            raise ScheduleValidationError(f"bad line selector {self.lines!r}")

    def describe(self) -> str:
        kind = "odd" if self.offset == 0 else "even"
        sort = "bubble" if self.direction == FORWARD else "reverse-bubble"
        return f"{self.lines} {self.axis}s: {kind} {sort} step"


@dataclass(frozen=True)
class WrapOp:
    """Wrap-around comparisons between the last and first columns.

    For ``h = 0 .. side-2`` (0-based), compare cell ``(h, side-1)`` with
    ``(h+1, 0)``; the smaller value is placed in ``(h, side-1)``, i.e. the
    wrap-around wires continue the row-major linear order across row
    boundaries.
    """

    def describe(self) -> str:
        return "wrap-around comparisons (h, last) vs (h+1, first)"


@dataclass(frozen=True)
class PairOp:
    """One compare-exchange between two adjacent cells.

    The smaller value is stored at :attr:`low`, the larger at :attr:`high`.
    The two cells must be nearest neighbours (horizontally or vertically
    adjacent) so the op stays executable on a mesh without extra wires.
    Generated schedule families (e.g. random adjacent-comparator networks
    on a ``1 x N`` linear array) are built from these.
    """

    low: tuple[int, int]
    high: tuple[int, int]

    def __post_init__(self) -> None:
        low = tuple(int(v) for v in self.low)
        high = tuple(int(v) for v in self.high)
        if len(low) != 2 or len(high) != 2:
            raise ScheduleValidationError(
                f"PairOp cells must be (row, col) pairs, got {self.low!r}, {self.high!r}"
            )
        if min(*low, *high) < 0:
            raise ScheduleValidationError(
                f"PairOp cells must be non-negative, got {low} vs {high}"
            )
        if abs(low[0] - high[0]) + abs(low[1] - high[1]) != 1:
            raise ScheduleValidationError(
                f"PairOp cells must be mesh-adjacent, got {low} vs {high}"
            )
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    def describe(self) -> str:
        return f"compare cells {self.low} vs {self.high} (smaller at {self.low})"


Op = LineOp | WrapOp | PairOp


@dataclass(frozen=True)
class Step:
    """A set of ops executed in the same time step.

    Ops within a step must touch pairwise-disjoint cells — checked against a
    concrete mesh side by :func:`validate_schedule`.  Because the cell sets
    are disjoint, engines may apply the ops sequentially.
    """

    ops: tuple[Op, ...]

    def __init__(self, *ops: Op):
        if not ops:
            raise ScheduleValidationError("a step must contain at least one op")
        object.__setattr__(self, "ops", tuple(ops))

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def describe(self) -> str:
        return " + ".join(op.describe() for op in self.ops)


@dataclass(frozen=True)
class Schedule:
    """A named, cyclically repeated sequence of steps.

    Attributes
    ----------
    name:
        Registry name of the algorithm (e.g. ``"snake_1"``).
    steps:
        The step cycle.  Step ``t`` (1-based, matching the paper's counting)
        executes ``steps[(t - 1) % len(steps)]``.
    order:
        Target order the schedule sorts into (``"row_major"`` or ``"snake"``).
    requires_even_side:
        True for the row-major algorithms, which are only defined for
        ``sqrt(N) = 2n``.
    uses_wraparound:
        True when any step contains a :class:`WrapOp` (extra wires needed).
    """

    name: str
    steps: tuple[Step, ...]
    order: str
    requires_even_side: bool = False
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise ScheduleValidationError("schedule must contain at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def uses_wraparound(self) -> bool:
        return any(isinstance(op, WrapOp) for step in self.steps for op in step)

    def step_at(self, t: int) -> Step:
        """The step executed at 1-based time ``t``."""
        if t < 1:
            raise DimensionError(f"step times are 1-based, got {t}")
        return self.steps[(t - 1) % len(self.steps)]

    def describe(self) -> str:
        lines = [f"schedule {self.name!r} -> {self.order} order"]
        for i, step in enumerate(self.steps, start=1):
            lines.append(f"  cycle step {i}/{len(self.steps)}: {step.describe()}")
        return "\n".join(lines)


def touched_cells(op: Op, side: int) -> np.ndarray:
    """Boolean (side, side) mask of cells an op reads/writes."""
    mask = np.zeros((side, side), dtype=bool)
    if isinstance(op, WrapOp):
        mask[:-1, side - 1] = True
        mask[1:, 0] = True
        return mask
    if isinstance(op, PairOp):
        for r, c in (op.low, op.high):
            if r >= side or c >= side:
                raise ScheduleValidationError(
                    f"PairOp cell ({r}, {c}) out of bounds for side {side}"
                )
            mask[r, c] = True
        return mask
    idx = line_indices(op.lines, side)
    p = pair_count(op.offset, side)
    span = slice(op.offset, op.offset + 2 * p)
    if op.axis == "row":
        mask[np.ix_(idx, np.arange(side)[span])] = True
    else:
        mask[np.ix_(np.arange(side)[span], idx)] = True
    return mask


def comparator_pairs(op: Op, side: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Explicit comparator list for an op on a concrete side.

    Each element is ``(low_cell, high_cell)`` meaning the *smaller* value is
    placed at ``low_cell``.  Used by the reference engine and the
    processor-level mesh machine.
    """
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
    if isinstance(op, WrapOp):
        for h in range(side - 1):
            pairs.append(((h, side - 1), (h + 1, 0)))
        return pairs
    if isinstance(op, PairOp):
        return [(op.low, op.high)]
    p = pair_count(op.offset, side)
    for line in line_indices(op.lines, side):
        for k in range(p):
            a = op.offset + 2 * k
            b = a + 1
            if op.axis == "row":
                first, second = (line, a), (line, b)
            else:
                first, second = (a, line), (b, line)
            if op.direction == FORWARD:
                pairs.append((first, second))
            else:
                pairs.append((second, first))
    return pairs


def validate_schedule(schedule: Schedule, side: int) -> None:
    """Check a schedule against a concrete mesh side.

    Raises :class:`ScheduleValidationError` if any step's ops touch
    overlapping cells, and :class:`~repro.errors.UnsupportedMeshError` (via
    the caller's constraint) is *not* checked here — engines check side
    parity when instantiating algorithms.
    """
    if side < 1:
        raise DimensionError(f"side must be positive, got {side}")
    for i, step in enumerate(schedule.steps, start=1):
        seen = np.zeros((side, side), dtype=np.int32)
        for op in step:
            seen += touched_cells(op, side)
        if (seen > 1).any():
            rows, cols = np.nonzero(seen > 1)
            cell = (int(rows[0]), int(cols[0]))
            raise ScheduleValidationError(
                f"schedule {schedule.name!r} step {i}: ops overlap at cell {cell} "
                f"for side {side}"
            )
