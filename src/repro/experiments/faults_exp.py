"""E-FAULT: sorting under comparator failures (robustness extension).

Transient failures (each comparator firing no-ops with probability p) leave
the schedules convergent — the sorted grid stays a fixed point and every
useful exchange still happens infinitely often — so the sort completes with
a measurable slowdown.  Killing the wrap wires permanently reproduces the
Section 1 failure mode exactly.
"""

from __future__ import annotations

import numpy as np

from repro.backends import step_cap
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.faults import faulty_run_until_sorted
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import Table
from repro.randomness import as_generator, random_permutation_grid
from repro.schedules import smallest_column_adversary

__all__ = ["exp_faults"]


def exp_faults(cfg: ExperimentConfig) -> Table:
    """Mean slowdown vs transient failure rate + the dead-wrap-wire demo."""
    table = Table(
        title="E-FAULT: steps under transient comparator failures",
        headers=["algorithm", "side", "failure rate", "trials", "mean steps",
                 "slowdown vs p=0", "all sorted"],
    )
    table.add_note(
        "Transient failures: each comparator firing no-ops independently with "
        "probability p; a generous 1/(1-p) scaled cap is used."
    )
    rng = as_generator((cfg.seed, 101))
    side = cfg.even_sides[0]
    trials = max(cfg.trials // 4, 8)
    rates = (0.0, 0.1, 0.3, 0.5)
    for name in ALGORITHM_NAMES:
        schedule = get_algorithm(name)
        grids = random_permutation_grid(side, batch=trials, rng=rng)
        base_mean = None
        for rate in rates:
            cap = int(step_cap(side) / max(1.0 - rate, 0.1)) * 2
            out = faulty_run_until_sorted(
                schedule, grids, max_steps=cap, failure_rate=rate,
                rng=rng, raise_on_cap=False,
            )
            ok = bool(np.all(out.completed))
            mean = float(np.mean(out.steps[out.steps >= 0])) if ok else float("nan")
            if rate == 0.0:
                base_mean = mean
            table.add_row(
                name, side, rate, trials, mean,
                mean / base_mean if base_mean else float("nan"), ok,
            )

    # permanent fault: dead wrap wires on the adversary
    dead = [((h, side - 1), (h + 1, 0)) for h in range(side - 1)]
    out = faulty_run_until_sorted(
        get_algorithm("row_major_row_first"),
        smallest_column_adversary(side),
        max_steps=8 * side * side,
        dead_pairs=dead,
    )
    table.add_row(
        "row_major_row_first", side, "dead wrap wires", 1, float("nan"),
        float("nan"), bool(np.all(out.completed)),
    )
    table.add_note(
        "Last row: all wrap wires permanently dead on the smallest-column "
        "adversary -> never sorts (Section 1)."
    )
    return table
