"""Smallest-element trajectory analysis for the third snakelike algorithm.

Lemmas 12-13 (and 15-16 for odd side) show that under ``snake_3`` the cell
holding the smallest entry of the mesh performs a *deterministic* walk
backwards along the snake path: writing ``m`` for the snake rank (1-based) of
the cell the minimum currently occupies,

* an *odd* pair of steps (``4i+1``, ``4i+2``) leaves ``m`` unchanged or
  decreases it by one, and
* an *even* pair (``4i+3``, ``4i+4``) decreases ``m`` by exactly one
  (until the minimum reaches the top-left cell).

Hence at least ``2m - 3`` steps are needed when the minimum starts on the
rank-``m`` cell, and since the start cell is uniform, the probability that
``snake_3`` finishes in fewer than ``delta*N`` steps is at most
``delta/2 + delta/(2N)`` (Theorem 12).

This module implements the predicted walk, trackers for the *actual* walk
(any algorithm), and the Theorem 12 bound.
"""

from __future__ import annotations

import numpy as np

from repro.backends.compile import CompiledSchedule
from repro.core.orders import rank_of_position, validate_grid
from repro.core.runner import resolve_algorithm as _resolve
from repro.core.schedule import Schedule
from repro.errors import DimensionError

__all__ = [
    "min_cell",
    "snake_rank_of_min",
    "predicted_cell_after_pair",
    "predicted_walk",
    "min_trajectory",
    "predicted_min_home_steps",
    "expected_min_home_steps",
    "steps_lower_bound_from_rank",
    "theorem12_tail_bound",
    "steps_until_min_home",
]


def min_cell(grid: np.ndarray) -> tuple[int, int]:
    """0-based cell of the minimum of a single grid."""
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise DimensionError("min_cell expects a single 2-D grid")
    r, c = np.unravel_index(int(np.argmin(arr)), arr.shape)
    return int(r), int(c)


def snake_rank_of_min(grid: np.ndarray) -> int:
    """0-based snake rank of the cell currently holding the minimum."""
    arr = np.asarray(grid)
    side = validate_grid(arr)
    r, c = min_cell(arr)
    return rank_of_position(r, c, side, "snake")


def predicted_cell_after_pair(
    cell: tuple[int, int], side: int, pair_parity: int
) -> tuple[int, int]:
    """Lemma 12/13 (and 15/16) walk: where the minimum sits after the next
    pair of ``snake_3`` steps.

    Parameters
    ----------
    cell:
        0-based (row, col) of the minimum after an even number of steps.
    pair_parity:
        0 for an odd pair (paper steps ``4i+1``, ``4i+2``), 1 for an even
        pair (steps ``4i+3``, ``4i+4``).

    The case analysis is the paper's, translated to 0-based coordinates
    (paper row ``j`` odd ⇔ 0-based row even).
    """
    r, c = cell
    if not (0 <= r < side and 0 <= c < side):
        raise DimensionError(f"cell {cell} out of range for side {side}")
    paper_j_odd = r % 2 == 0
    paper_k_odd = c % 2 == 0
    if pair_parity == 0:
        # Lemma 12 / 15: steps 4i+1 (row transpositions) then 4i+2 (columns).
        if paper_j_odd == paper_k_odd:
            return (r, c)  # case 1: untouched
        if not paper_j_odd and paper_k_odd:
            # case 2: paper j even, k odd -> (j, k+1); at odd side with
            # k = sqrt(N) (last, paper-odd) Lemma 15 subcase 2b moves it up
            # via the column step instead.
            if c == side - 1:
                return (r - 1, c)
            return (r, c + 1)
        # case 3: paper j odd, k even -> (j, k-1)
        return (r, c - 1)
    if pair_parity == 1:
        # Lemma 13 / 16: steps 4i+3 then 4i+4; position has j ≡ k (mod 2).
        if paper_j_odd != paper_k_odd:
            raise DimensionError(
                f"cell {cell}: an even pair must start from j ≡ k (mod 2)"
            )
        if not paper_j_odd:  # paper j, k both even
            if c != side - 1:
                return (r, c + 1)  # subcase 1a
            return (r - 1, c)  # subcase 1b: wrap up the snake at the right edge
        # paper j, k both odd
        if c != 0:
            return (r, c - 1)  # subcase 2a
        if r == 0:
            return (0, 0)  # minimum is home; the lemma assumes m > 1
        return (r - 1, c)  # subcase 2b: wrap up the snake at the left edge
    raise DimensionError(f"pair_parity must be 0 or 1, got {pair_parity}")


def predicted_walk(cell: tuple[int, int], side: int, num_pairs: int) -> list[tuple[int, int]]:
    """The predicted minimum positions after each of ``num_pairs`` step pairs."""
    out = []
    cur = cell
    for i in range(num_pairs):
        cur = predicted_cell_after_pair(cur, side, i % 2)
        out.append(cur)
    return out


def min_trajectory(
    algorithm: str | Schedule,
    grid: np.ndarray,
    num_pairs: int,
) -> list[tuple[int, int]]:
    """Actual minimum positions after each pair of steps of any algorithm."""
    schedule = _resolve(algorithm)
    arr = np.array(grid, copy=True)
    side = validate_grid(arr)
    if arr.ndim != 2:
        raise DimensionError("min_trajectory expects a single grid")
    compiled = CompiledSchedule(schedule, side)
    out = []
    t = 0
    for _ in range(num_pairs):
        t += 1
        compiled.apply_step(arr, t)
        t += 1
        compiled.apply_step(arr, t)
        out.append(min_cell(arr))
    return out


def predicted_min_home_steps(cell: tuple[int, int], side: int) -> int:
    """Exact number of steps for the minimum to reach (0, 0) under snake_3.

    The Lemma 12/13 walk is deterministic, so the travel time is a function
    of the start cell alone: simulate the predicted walk to the pair that
    lands on (0, 0).  The final hop is always (0, 1) -> (0, 0), executed by
    the *first* step of an odd pair (Lemma 12 case 3), so the arrival time
    is ``2 * pairs - 1`` (and 0 when already home).  Verified against live
    runs by the tests — making Theorem 12's ">= 2m - 3" an exact formula.
    """
    if cell == (0, 0):
        return 0
    cur = cell
    pairs = 0
    limit = 2 * side * side + 8
    while pairs < limit:
        cur = predicted_cell_after_pair(cur, side, pairs % 2)
        pairs += 1
        if cur == (0, 0):
            return 2 * pairs - 1
    raise DimensionError(f"walk from {cell} did not reach home within {limit} pairs")


def expected_min_home_steps(side: int) -> float:
    """Exact expectation of snake_3's min-home time over a uniform start.

    The start cell of the minimum is uniform over the mesh, and
    :func:`predicted_min_home_steps` is exact, so the average is a finite
    sum — the exact version of the Θ(N) behaviour E-MINHOME measures.
    """
    total = 0
    for r in range(side):
        for c in range(side):
            total += predicted_min_home_steps((r, c), side)
    return total / (side * side)


def steps_lower_bound_from_rank(m: int) -> int:
    """Theorem 12's ``2m - 3`` lower bound when the minimum starts on the
    cell that finally holds the ``m``-th smallest entry (1-based ``m``)."""
    if m < 1:
        raise DimensionError(f"m is a 1-based rank, got {m}")
    return max(2 * m - 3, 0)


def theorem12_tail_bound(delta: float, n_cells: int) -> float:
    """Theorem 12: ``Pr[steps < delta*N] <= delta/2 + delta/(2N)``."""
    if delta < 0:
        raise DimensionError(f"delta must be non-negative, got {delta}")
    return delta / 2 + delta / (2 * n_cells)


def steps_until_min_home(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    max_steps: int,
) -> int:
    """Number of steps until the minimum first occupies the top-left cell.

    Used to reproduce the paper's closing remark that the first four
    algorithms move the smallest element home in Θ(sqrt(N)) average steps,
    whereas ``snake_3`` needs Θ(N) with high probability.
    """
    schedule = _resolve(algorithm)
    arr = np.array(grid, copy=True)
    side = validate_grid(arr)
    if arr.ndim != 2:
        raise DimensionError("steps_until_min_home expects a single grid")
    if min_cell(arr) == (0, 0):
        return 0
    compiled = CompiledSchedule(schedule, side)
    for t in range(1, max_steps + 1):
        compiled.apply_step(arr, t)
        if min_cell(arr) == (0, 0):
            return t
    return -1
