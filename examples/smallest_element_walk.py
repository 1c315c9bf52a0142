#!/usr/bin/env python
"""Watch the smallest element walk the snake under the third algorithm.

Run:  python examples/smallest_element_walk.py [side]

Lemmas 12-13: under snake_3 the cell holding the global minimum moves
deterministically backwards along the snake path — at most one snake rank
per pair of steps, exactly one on even pairs.  This script tracks the
actual minimum through a run, prints it against the lemma-predicted walk,
and checks the 2m-3 step bound of Theorem 12.
"""

from __future__ import annotations

import sys

from repro.core.orders import rank_of_position
from repro.randomness import random_permutation_grid
from repro.zeroone import (
    min_cell,
    min_trajectory,
    predicted_walk,
    steps_lower_bound_from_rank,
    steps_until_min_home,
)
from repro.backends import step_cap


def main() -> None:
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    grid = random_permutation_grid(side, rng=7)
    start = min_cell(grid)
    m = rank_of_position(*start, side, "snake") + 1  # 1-based snake rank

    print(f"{side}x{side} mesh; minimum starts at cell {start} "
          f"(the cell of the m={m}-th smallest value in snake order)")
    print(f"Theorem 12: at least 2m-3 = {steps_lower_bound_from_rank(m)} steps "
          "are needed to bring it home.\n")

    pairs = min(2 * m + 4, 4 * side * side)
    actual = min_trajectory("snake_3", grid, pairs)
    predicted = predicted_walk(start, side, pairs)

    print(f"{'pair':>4s} {'after step':>10s} {'actual':>10s} {'predicted':>10s} "
          f"{'snake rank':>10s}")
    for i, (a, p) in enumerate(zip(actual, predicted)):
        rank = rank_of_position(*a, side, "snake")
        marker = "" if a == p else "  <-- MISMATCH"
        print(f"{i:4d} {2 * (i + 1):10d} {str(a):>10s} {str(p):>10s} {rank:10d}{marker}")
        if a == (0, 0):
            break

    home = steps_until_min_home("snake_3", grid, max_steps=step_cap(side))
    print(f"\nminimum reached the top-left cell after {home} steps "
          f"(lower bound was {steps_lower_bound_from_rank(m)})")


if __name__ == "__main__":
    main()
