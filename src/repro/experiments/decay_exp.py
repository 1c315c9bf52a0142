"""E-DECAY: inversion decay curves — how the disorder drains over a run.

The paper's potentials certify that disorder drains *slowly* (at most one
potential unit per cycle).  This experiment records the complementary
global view: the number of inversions against the target order at
checkpoints ``t = q * N``, averaged over seeds, for every algorithm.  The
resulting series is the reproduction-era "figure 2": snake_1's curve dives
first (its constant is ~N/2), snake_3's stretches to ~2N, and all five hit
zero at Θ(N).
"""

from __future__ import annotations

import numpy as np

from repro.backends.compile import CompiledSchedule
from repro.core.algorithms import ALGORITHM_NAMES
from repro.core.orders import target_grid
from repro.core.runner import resolve_algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import Table
from repro.randomness import as_generator, random_permutation_grid
from repro.zeroone.diagnostics import inversions

__all__ = ["exp_decay"]

_CHECKPOINTS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)


def exp_decay(cfg: ExperimentConfig) -> Table:
    """Mean inversion fraction remaining at step checkpoints t = q*N."""
    table = Table(
        title="E-DECAY: fraction of inversions remaining at t = q*N",
        headers=["algorithm", "side"] + [f"q={q}" for q in _CHECKPOINTS],
    )
    table.add_note(
        "Inversions counted in the target-order traversal, normalized by the "
        "start value; mean over trials."
    )
    rng = as_generator((cfg.seed, 111))
    side = cfg.even_sides[min(1, len(cfg.even_sides) - 1)]
    n_cells = side * side
    trials = max(cfg.trials // 8, 4)
    for name in ALGORITHM_NAMES:
        schedule = resolve_algorithm(name)
        compiled = CompiledSchedule(schedule, side)
        fractions = np.zeros((trials, len(_CHECKPOINTS)))
        for trial in range(trials):
            grid = random_permutation_grid(side, rng=rng)
            target = target_grid(grid, side, schedule.order)
            work = grid.copy()
            start = inversions(work, schedule.order)
            t = 0
            for qi, q in enumerate(_CHECKPOINTS):
                t_goal = int(round(q * n_cells))
                while t < t_goal and not np.array_equal(work, target):
                    t += 1
                    compiled.apply_step(work, t)
                fractions[trial, qi] = inversions(work, schedule.order) / max(start, 1)
        means = fractions.mean(axis=0)
        table.add_row(name, side, *[float(v) for v in means])
    return table
