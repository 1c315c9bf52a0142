"""Structural experiments: lemma invariants, potential bounds, min-home times.

* E-L123: Lemmas 1-3 checked cellwise on random 0-1 matrices around each
  step of the row-major algorithms.
* E-T1: Theorem 1 / Corollary 2 — the potential measured after the first
  row sort must under-estimate the realized sorting time on every trial.
* E-T6/T9: the snakelike potential bounds (Theorem 6 and 9) checked the
  same way, including the Z/Y monotonicity chains (Lemmas 5-8, 10).
* E-MINHOME: average steps for the smallest element to reach the top-left
  cell — Θ(sqrt(N)) for the first four algorithms, Θ(N) for snake_3
  (the paper's closing remark).
"""

from __future__ import annotations

import numpy as np

from repro.backends import iter_run, run_sort, step_cap
from repro.core.runner import resolve_algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.montecarlo import summarize
from repro.experiments.tables import Table
from repro.randomness import as_generator, random_permutation_grid, random_zero_one_grid
from repro.theory.bounds import corollary2_lower_bound
from repro.zeroone.invariants import (
    check_lemma1_column_sort,
    check_lemma2_odd_row_sort,
    check_lemma3_even_row_sort,
    check_lemma10,
    check_lemmas_5_to_8,
)
from repro.zeroone.smallest import steps_until_min_home
from repro.zeroone.threshold import threshold_matrix
from repro.zeroone.trackers import (
    theorem6_additional_steps,
    theorem9_additional_steps,
    y1_statistic,
    z1_statistic,
)
from repro.zeroone.weights import m_statistic

__all__ = ["exp_invariants", "exp_potential_bounds", "exp_min_home"]

_ROW_FIRST_CHECKERS = {
    # step index in the cycle (1-based) -> lemma checker
    1: check_lemma2_odd_row_sort,
    2: check_lemma1_column_sort,
    3: check_lemma3_even_row_sort,
    4: check_lemma1_column_sort,
}


def exp_invariants(cfg: ExperimentConfig) -> Table:
    """E-L123 + Lemmas 5-8, 10: violation counts over random traces."""
    table = Table(
        title="E-L123: lemma invariants on random 0-1 traces",
        headers=["lemma", "algorithm", "side", "matrices", "steps checked", "violations"],
    )
    rng = as_generator(cfg.seed)
    for side in cfg.even_sides:
        cycles = 2 * side
        checked = {1: 0, 2: 0, 3: 0, 4: 0}
        violations = {1: 0, 2: 0, 3: 0, 4: 0}
        for _ in range(cfg.invariant_trials):
            grid = random_zero_one_grid(side, rng=rng)
            prev = np.asarray(grid)
            for t, snap in iter_run(
                "vectorized", resolve_algorithm("row_major_row_first"), grid, 4 * cycles
            ):
                phase = (t - 1) % 4 + 1
                checker = _ROW_FIRST_CHECKERS[phase]
                violations[phase] += len(checker(prev, snap))
                checked[phase] += 1
                prev = snap
        table.add_row("Lemma 2 (odd row sort)", "row_major_row_first", side,
                      cfg.invariant_trials, checked[1], violations[1])
        table.add_row("Lemma 1 (column sort)", "row_major_row_first", side,
                      cfg.invariant_trials, checked[2] + checked[4],
                      violations[2] + violations[4])
        table.add_row("Lemma 3 (even row sort)", "row_major_row_first", side,
                      cfg.invariant_trials, checked[3], violations[3])

        z_viol = 0
        y_viol = 0
        steps = 4 * cycles
        for _ in range(cfg.invariant_trials):
            grid = random_zero_one_grid(side, rng=rng)
            trace1 = [
                s for _, s in iter_run("vectorized", resolve_algorithm("snake_1"), grid, steps)
            ]
            z_viol += len(check_lemmas_5_to_8(trace1))
            trace2 = [
                s for _, s in iter_run("vectorized", resolve_algorithm("snake_2"), grid, steps)
            ]
            y_viol += len(check_lemma10(trace2))
        table.add_row("Lemmas 5-8 (Z chain)", "snake_1", side,
                      cfg.invariant_trials, steps, z_viol)
        table.add_row("Lemma 10 (Y chain)", "snake_2", side,
                      cfg.invariant_trials, steps, y_viol)
    return table


def exp_potential_bounds(cfg: ExperimentConfig) -> Table:
    """E-T1/T6/T9: potential-based lower bounds vs realized sorting times.

    For each random permutation, the potential after step 1 (or 2 for the
    column-first variant) yields a lower bound on total steps; the realized
    completion time must dominate it on *every* trial.
    """
    table = Table(
        title="E-T1/T6/T9: per-trial potential bound <= realized steps",
        headers=["bound", "algorithm", "side", "trials", "min slack", "violations"],
    )
    table.add_note(
        "slack = realized steps - potential lower bound; Theorem 1 via "
        "Corollary 2 (M statistic), Theorem 6 (Z1(0)), Theorem 9 (Y1(0))."
    )
    rng = as_generator((cfg.seed, 41))
    trials = max(cfg.trials // 2, 8)
    cases = (
        ("Corollary 2 (4nM)", "row_major_row_first", 1,
         lambda grid01, side: corollary2_lower_bound(int(m_statistic(grid01)), side)),
        ("Corollary 2 (4nM)", "row_major_col_first", 2,
         lambda grid01, side: corollary2_lower_bound(int(m_statistic(grid01)), side)),
        ("Theorem 6 (Z1)", "snake_1", 1,
         lambda grid01, side: theorem6_additional_steps(
             int(z1_statistic(grid01)), (side * side) // 2, side * side) + 1),
        ("Theorem 9 (Y1)", "snake_2", 1,
         lambda grid01, side: theorem9_additional_steps(
             int(y1_statistic(grid01)), (side * side) // 2) + 1),
    )
    for bound_name, algorithm, measure_step, bound_fn in cases:
        schedule = resolve_algorithm(algorithm)
        for side in cfg.even_sides:
            grids = random_permutation_grid(side, batch=trials, rng=rng)
            zero_one = threshold_matrix(grids)
            outcome = run_sort(
                "vectorized", schedule, grids, max_steps=step_cap(side), raise_on_cap=True
            )
            slacks = []
            viol = 0
            for i in range(trials):
                work = zero_one[i].copy()
                for t, snap in iter_run("vectorized", schedule, work, measure_step):
                    pass
                bound = bound_fn(snap, side)
                realized = int(outcome.steps[i])
                slacks.append(realized - bound)
                if realized < bound:
                    viol += 1
            table.add_row(bound_name, algorithm, side, trials, min(slacks), viol)
    return table


def exp_min_home(cfg: ExperimentConfig) -> Table:
    """E-MINHOME: steps for the smallest value to reach the top-left cell."""
    table = Table(
        title="E-MINHOME: smallest element's travel time to cell (1,1)",
        headers=["algorithm", "side", "trials", "mean steps", "mean/sqrt(N)", "mean/N"],
    )
    table.add_note(
        "Paper, end of Section 3: the first four algorithms move the minimum "
        "home in Theta(sqrt(N)) average steps; snake_3 needs Theta(N) w.h.p."
    )
    rng = as_generator((cfg.seed, 99))
    trials = max(cfg.trials // 4, 8)
    for algorithm in (
        "row_major_row_first",
        "row_major_col_first",
        "snake_1",
        "snake_2",
        "snake_3",
    ):
        for side in cfg.even_sides:
            times = []
            for _ in range(trials):
                grid = random_permutation_grid(side, rng=rng)
                t = steps_until_min_home(
                    algorithm, grid, max_steps=step_cap(side)
                )
                times.append(t)
            stats = summarize(np.array(times))
            table.add_row(
                algorithm, side, trials, stats.mean,
                stats.mean / side, stats.mean / (side * side),
            )
    return table
