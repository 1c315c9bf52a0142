"""Adversarial-input experiments: Corollary 1 and the no-wrap failure mode.

* E-C1: with the smallest ``sqrt(N)`` values stacked in one column, both
  row-major algorithms need at least ``2N - 4 sqrt(N)`` steps (Corollary 1 —
  the worst case the paper identifies).
* E-NOWRAP: on the same input, the row-major schedule *without* wrap-around
  wires never sorts — the smallest column's values are trapped (Section 1's
  motivation for the extra wires).
"""

from __future__ import annotations

import numpy as np

from repro.core.runner import sort_grid
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import Table
from repro.schedules import smallest_column_adversary
from repro.theory.bounds import corollary1_worst_case_lower
from repro.zeroone.threshold import threshold_matrix
from repro.zeroone.weights import column_zeros

__all__ = ["exp_corollary1", "exp_no_wrap"]


def exp_corollary1(cfg: ExperimentConfig) -> Table:
    """E-C1: adversary steps vs the 2N - 4 sqrt(N) worst-case lower bound."""
    table = Table(
        title="E-C1: smallest-column adversary vs Corollary 1 (>= 2N - 4*sqrt(N))",
        headers=["algorithm", "side", "N", "steps", "bound", "steps/N", "bound holds"],
    )
    table.add_note(
        "Corollary 1 is proved for the 0-1 matrix with one all-zero column; the "
        "permutation adversary stacks the smallest sqrt(N) values in column 1, "
        "whose threshold matrix is exactly that 0-1 matrix."
    )
    for algorithm in ("row_major_row_first", "row_major_col_first"):
        for side in cfg.even_sides:
            adversary = smallest_column_adversary(side)
            report = sort_grid(algorithm, adversary, raise_on_cap=True)
            steps = report.steps_scalar()
            bound = corollary1_worst_case_lower(side)
            table.add_row(
                algorithm, side, side * side, steps, bound,
                steps / (side * side), steps >= bound,
            )
    return table


def exp_no_wrap(cfg: ExperimentConfig) -> Table:
    """E-NOWRAP: without wrap wires the adversary is never sorted."""
    table = Table(
        title="E-NOWRAP: row-major schedule without wrap-around wires",
        headers=[
            "side",
            "cap (steps)",
            "sorted",
            "zeros stuck in column 1",
        ],
    )
    table.add_note(
        "Section 1: without wrap-around comparisons, the smallest sqrt(N) values "
        "can never leave their column, so the sort never completes and the "
        "column's zero count never changes."
    )
    # Resolved by registry name: the pathological family is addressable
    # even though sweeps exclude it by default.
    schedule = "row_major_no_wrap"
    for side in cfg.even_sides:
        adversary = smallest_column_adversary(side)
        cap = 8 * side * side
        report = sort_grid(schedule, adversary, max_steps=cap)
        zeros_col1 = int(column_zeros(threshold_matrix(report.final, side))[0])
        table.add_row(side, cap, bool(np.all(report.completed)), zeros_col1)
    return table
