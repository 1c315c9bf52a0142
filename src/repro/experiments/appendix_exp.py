"""E-APP: odd-side (``sqrt(N) = 2n+1``) reproduction of the appendix.

Runs the three snakelike algorithms on odd meshes, checks the Corollary 4
average-case bound, and the per-trial Theorem 13 potential bound.
"""

from __future__ import annotations

from repro.backends import iter_run, run_sort, step_cap
from repro.core.runner import resolve_algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.sampling import sample
from repro.experiments.tables import Table
from repro.randomness import as_generator, paper_zero_count, random_permutation_grid
from repro.theory.appendix import corollary4_average_lower
from repro.zeroone.threshold import threshold_matrix
from repro.zeroone.trackers import theorem13_additional_steps, z1_statistic

__all__ = ["exp_appendix_average", "exp_appendix_potential"]


def exp_appendix_average(cfg: ExperimentConfig) -> Table:
    """Average steps on odd meshes vs Corollary 4 (snake_1/snake_2)."""
    table = Table(
        title="E-APP: odd-side averages vs Corollary 4",
        headers=["algorithm", "side", "N", "trials", "mean steps", "corollary 4 bound",
                 "mean/N", "bound holds"],
    )
    table.add_note(
        "Appendix: the first two snakelike analyses carry over to odd side with "
        "Definitions 12-13; snake_3 is covered by Lemmas 15-16 (E-T12 handles its tail)."
    )
    for algorithm in ("snake_1", "snake_2", "snake_3"):
        for side in cfg.odd_sides:
            stats = sample(
                algorithm, side=side, trials=cfg.trials,
                seed=(cfg.seed, side, 13), execution=cfg.execution,
            ).stats
            n_cells = side * side
            if algorithm in ("snake_1", "snake_2"):
                bound = float(corollary4_average_lower(side))
            else:
                bound = float(n_cells - 2)  # Theorem 12's displacement average
            table.add_row(
                algorithm, side, n_cells, stats.count, stats.mean, bound,
                stats.mean / n_cells, stats.mean + 1.96 * stats.sem >= bound,
            )
    return table


def exp_appendix_potential(cfg: ExperimentConfig) -> Table:
    """Per-trial Theorem 13 bound vs realized steps on odd meshes."""
    table = Table(
        title="E-APP: Theorem 13 potential bound per trial (odd side)",
        headers=["algorithm", "side", "trials", "min slack", "violations"],
    )
    rng = as_generator((cfg.seed, 77))
    trials = max(cfg.trials // 2, 8)
    for algorithm in ("snake_1", "snake_2"):
        schedule = resolve_algorithm(algorithm)
        for side in cfg.odd_sides:
            grids = random_permutation_grid(side, batch=trials, rng=rng)
            zero_one = threshold_matrix(grids)
            outcome = run_sort(
                "vectorized", schedule, grids, max_steps=step_cap(side), raise_on_cap=True
            )
            alpha = paper_zero_count(side)
            slacks = []
            viol = 0
            for i in range(trials):
                for _, snap in iter_run("vectorized", schedule, zero_one[i], 1):
                    pass
                bound = theorem13_additional_steps(
                    int(z1_statistic(snap)), alpha, side * side
                ) + 1
                realized = int(outcome.steps[i])
                slacks.append(realized - bound)
                if realized < bound:
                    viol += 1
            table.add_row(algorithm, side, trials, min(slacks), viol)
    return table
