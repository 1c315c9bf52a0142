"""E-RECT: the Θ(N) average persists on rectangular meshes.

Runs each algorithm across aspect ratios with N held (approximately)
constant, confirming that the average-case behaviour the paper proves for
squares is a property of the algorithms, not of the aspect ratio — and
measuring how the constant shifts with elongation.
"""

from __future__ import annotations

import numpy as np

from repro.backends import run_sort
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.montecarlo import summarize
from repro.experiments.tables import Table
from repro.randomness import as_generator

__all__ = ["exp_rectangles"]


def _shapes(base: int) -> list[tuple[int, int]]:
    """Aspect ratios with comparable cell counts around ``base^2``."""
    return [
        (base, base),
        (base // 2, base * 2),
        (base * 2, base // 2),
        (base // 2 + 1, base * 2),  # odd rows
    ]


def exp_rectangles(cfg: ExperimentConfig) -> Table:
    """Average steps across aspect ratios (extension of the square model)."""
    table = Table(
        title="E-RECT: average steps on rectangular meshes (random permutations)",
        headers=["algorithm", "rows x cols", "N", "trials", "mean steps", "steps/N"],
    )
    table.add_note(
        "The row-major algorithms require an even column count (the wrap "
        "constraint); shapes violating it are skipped."
    )
    rng = as_generator((cfg.seed, 81))
    base = cfg.even_sides[min(1, len(cfg.even_sides) - 1)]
    trials = max(cfg.trials // 2, 16)
    for name in ALGORITHM_NAMES:
        schedule = get_algorithm(name)
        for rows, cols in _shapes(base):
            if schedule.requires_even_side and cols % 2 != 0:
                continue
            n_cells = rows * cols
            grids = np.stack(
                [rng.permutation(n_cells).reshape(rows, cols) for _ in range(trials)]
            )
            out = run_sort("rect", schedule, grids, raise_on_cap=True)
            stats = summarize(out.steps)
            table.add_row(
                name, f"{rows}x{cols}", n_cells, trials, stats.mean,
                stats.mean / n_cells,
            )
    return table
