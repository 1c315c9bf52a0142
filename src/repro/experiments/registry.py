"""Registry of every experiment reproducing the paper's results.

Experiment ids match the per-experiment index in DESIGN.md.  Each entry
pairs a runner ``(ExperimentConfig) -> Table`` with its reproduction claim,
a predicate ``(Table) -> bool`` that holds when the table meets the paper's
bound (or the extension's stated criterion).  ``repro run`` exposes the
runners on the command line, and the tier-1 tests check every claim at the
quick scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import DimensionError
from repro.experiments.adversarial import exp_corollary1, exp_no_wrap
from repro.experiments.appendix_exp import exp_appendix_average, exp_appendix_potential
from repro.experiments.average_case import (
    exp_theorem2,
    exp_theorem4,
    exp_theorem7,
    exp_theorem10,
    exp_theorem12_average,
)
from repro.experiments.campaign_exp import exp_campaign
from repro.experiments.config import ExperimentConfig
from repro.experiments.decay_exp import exp_decay
from repro.experiments.exact_tails import exp_exact_tails
from repro.experiments.faults_exp import exp_faults
from repro.experiments.extensions import (
    exp_adaptivity,
    exp_constants,
    exp_distribution,
    exp_traffic,
    exp_worst_search,
)
from repro.experiments.linear_exp import exp_linear
from repro.experiments.rect_exp import exp_rectangles
from repro.experiments.moments_mc import (
    exp_moments_row_major,
    exp_moments_snake,
    exp_moments_variance,
)
from repro.experiments.scaling import exp_scaling
from repro.experiments.structure import (
    exp_invariants,
    exp_min_home,
    exp_potential_bounds,
)
from repro.experiments.tables import Table
from repro.experiments.tails import exp_tails, exp_theorem12_tail
from repro.experiments.verify_exp import exp_verify

__all__ = ["ExperimentSpec", "EXPERIMENTS", "run_experiment", "experiment_ids"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: id, paper artifact, runner and claim."""

    exp_id: str
    paper_artifact: str
    run: Callable[[ExperimentConfig], Table]
    claim: Callable[[Table], bool]


def _last_column_true(table: Table) -> bool:
    return all(row[-1] for row in table.rows)


def _last_column_zero(table: Table) -> bool:
    return all(row[-1] == 0 for row in table.rows)


def _theta_n_band(column: int) -> Callable[[Table], bool]:
    """``0.4 < steps/N < 2.5`` in ``column`` of every row (E-RECT's band)."""
    return lambda table: all(0.4 < row[column] < 2.5 for row in table.rows)


def _linear_claim(table: Table) -> bool:
    """(N-1)/2 <= mean <= N and worst <= N."""
    return all(
        lower <= mean <= upper and worst <= upper
        for _, _, mean, lower, _, worst, upper in table.rows
    )


def _never_sorted(table: Table) -> bool:
    return all(row[2] is False for row in table.rows)


def _min_home_claim(table: Table) -> bool:
    """snake_3's mean/N stays away from zero; the others' mean/sqrt(N) is small."""
    return all(
        row[-1] > 0.3 if row[0] == "snake_3" else row[-2] < 5.0 for row in table.rows
    )


def _scaling_claim(table: Table) -> bool:
    """Bubble sorts keep steps/N in a flat band; shearsort's steps/N falls."""
    by_algo: dict[str, list[float]] = {}
    for row in table.rows:
        by_algo.setdefault(row[0], []).append(row[4])
    return all(
        ratios[-1] < ratios[0]
        if name.startswith("shearsort")
        else max(ratios) / min(ratios) < 1.6
        for name, ratios in by_algo.items()
    )


def _constant_above_bound(table: Table) -> bool:
    return all(row[4] for row in table.rows)


def _concentrated(table: Table) -> bool:
    """90 % of the mass within ~35 % of the median."""
    return all(row[-1] < 0.5 for row in table.rows)


def _traffic_claim(table: Table) -> bool:
    """swaps <= comparisons; only the row-major pair uses wrap wires."""
    return all(
        swaps <= comparisons
        and (wrap_share > 0 if name.startswith("row_major") else wrap_share == 0)
        for name, _, _, comparisons, swaps, _, wrap_share in table.rows
    )


def _adaptivity_claim(table: Table) -> bool:
    """Sorted input takes zero steps; nearly sorted beats random."""
    return all(row[2] == 0.0 and (row[3] < row[4] or row[4] == 0) for row in table.rows)


def _fault_claim(table: Table) -> bool:
    """Transient faults (a float failure rate) always sort; dead wrap wires never do."""
    return all(bool(row[-1]) == isinstance(row[2], float) for row in table.rows)


def _decay_claim(table: Table) -> bool:
    """Inversions start at 1, never grow, and are under 5 % by t = 2N."""
    return all(
        row[2] == 1.0
        and all(a >= b - 1e-9 for a, b in zip(row[2:], row[3:]))
        and row[-1] < 0.05
        for row in table.rows
    )


_SPECS = (
    ExperimentSpec("E-1D", "Section 1 linear-array facts", exp_linear, _linear_claim),
    ExperimentSpec("E-L123", "Lemmas 1-3, 5-8, 10 invariants", exp_invariants,
                   _last_column_zero),
    ExperimentSpec("E-T1", "Theorem 1 / Corollary 2, Theorems 6, 9 potential bounds",
                   exp_potential_bounds, _last_column_zero),
    ExperimentSpec("E-C1", "Corollary 1 worst case", exp_corollary1, _last_column_true),
    ExperimentSpec("E-NOWRAP", "Section 1 wrap-around necessity", exp_no_wrap,
                   _never_sorted),
    ExperimentSpec("E-L4", "Lemma 4 / Theorem 4 first moments", exp_moments_row_major,
                   _last_column_true),
    ExperimentSpec("E-L9", "Lemmas 9, 11, 14 snakelike moments", exp_moments_snake,
                   _last_column_true),
    ExperimentSpec("E-VAR", "Theorems 3, 5, 8 variances", exp_moments_variance,
                   _last_column_true),
    ExperimentSpec("E-T2", "Theorem 2 average case", exp_theorem2, _last_column_true),
    ExperimentSpec("E-T4", "Theorem 4 average case", exp_theorem4, _last_column_true),
    ExperimentSpec("E-T7", "Theorem 7 average case", exp_theorem7, _last_column_true),
    ExperimentSpec("E-T10", "Theorem 10 average case", exp_theorem10, _last_column_true),
    ExperimentSpec("E-T12-avg", "Theorem 12 average case", exp_theorem12_average,
                   _last_column_true),
    ExperimentSpec("E-TAILS", "Theorems 3, 5, 8, 11 tails", exp_tails, _last_column_true),
    ExperimentSpec("E-T12", "Theorem 12 tail", exp_theorem12_tail, _last_column_true),
    ExperimentSpec("E-MINHOME", "Closing remark on the smallest element", exp_min_home,
                   _min_home_claim),
    ExperimentSpec("E-APP", "Appendix Corollary 4 averages", exp_appendix_average,
                   _last_column_true),
    ExperimentSpec("E-APP-T13", "Appendix Theorem 13 potentials", exp_appendix_potential,
                   _last_column_zero),
    ExperimentSpec("E-SCALE", "Headline Theta(N) scaling figure", exp_scaling,
                   _scaling_claim),
    ExperimentSpec("E-CONST", "Extension: fitted average-case constants", exp_constants,
                   _constant_above_bound),
    ExperimentSpec("E-DIST", "Extension: step-count concentration", exp_distribution,
                   _concentrated),
    ExperimentSpec("E-TRAFFIC", "Extension: wire traffic accounting", exp_traffic,
                   _traffic_claim),
    ExperimentSpec("E-ADAPT", "Extension: input-order sensitivity", exp_adaptivity,
                   _adaptivity_claim),
    ExperimentSpec("E-WORST", "Extension: empirical worst-case search", exp_worst_search,
                   _last_column_true),
    ExperimentSpec("E-EXACT", "Extension: exact finite-n potential tails", exp_exact_tails,
                   _last_column_true),
    ExperimentSpec("E-RECT", "Extension: rectangular meshes", exp_rectangles,
                   _theta_n_band(-1)),
    ExperimentSpec("E-FAULT", "Extension: comparator fault injection", exp_faults,
                   _fault_claim),
    ExperimentSpec("E-DECAY", "Extension: inversion decay curves", exp_decay,
                   _decay_claim),
    ExperimentSpec("E-CAMP", "Infrastructure: sharded parallel campaigns", exp_campaign,
                   _theta_n_band(4)),
    ExperimentSpec("E-VERIFY", "Infrastructure: differential/metamorphic verification",
                   exp_verify, _last_column_zero),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {spec.exp_id: spec for spec in _SPECS}


def experiment_ids() -> list[str]:
    return [spec.exp_id for spec in _SPECS]


def run_experiment(exp_id: str, cfg: ExperimentConfig | None = None) -> Table:
    """Run one experiment by id and return its result table."""
    if exp_id not in EXPERIMENTS:
        raise DimensionError(
            f"unknown experiment {exp_id!r}; known: {', '.join(experiment_ids())}"
        )
    return EXPERIMENTS[exp_id].run(cfg or ExperimentConfig())
