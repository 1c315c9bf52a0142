"""Core library: the five 2-D bubble sorting algorithms and their executors.

Public surface:

* :mod:`repro.core.algorithms` — the five schedules + registry;
* :mod:`repro.core.schedule` — the comparator IR;
* :mod:`repro.core.reference` — pure-Python oracle;
* :mod:`repro.core.orders` — row-major / snakelike target orders;
* :mod:`repro.core.runner` — high-level ``sort_grid`` entry point.

The executors themselves (vectorized, reference, mesh, rect) run through
one driver in :mod:`repro.backends`.
"""

from repro.core.algorithms import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    ROW_MAJOR_NAMES,
    SNAKE_NAMES,
    get_algorithm,
)
from repro.core.orders import is_sorted_grid, rank_grid, target_grid
from repro.core.runner import describe_algorithm, sort_grid, sort_steps, trace
from repro.core.schedule import Schedule, Step, LineOp, WrapOp

__all__ = [
    "ALGORITHM_NAMES",
    "ALGORITHMS",
    "ROW_MAJOR_NAMES",
    "SNAKE_NAMES",
    "get_algorithm",
    "is_sorted_grid",
    "rank_grid",
    "target_grid",
    "describe_algorithm",
    "sort_grid",
    "sort_steps",
    "trace",
    "Schedule",
    "Step",
    "LineOp",
    "WrapOp",
]
