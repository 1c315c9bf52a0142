"""High-level sorting API: algorithm names in, step counts out.

This module is the main user entry point of the core library::

    >>> import numpy as np
    >>> from repro.core.runner import sort_grid
    >>> from repro.randomness import random_permutation_grid
    >>> grid = random_permutation_grid(8, rng=0)
    >>> result = sort_grid("snake_1", grid)
    >>> bool(result.completed)
    True

It resolves algorithm names through the registry, picks a safe step cap,
and delegates execution to the vectorized engine (or the pure-Python
reference engine for verification runs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends import Backend, SortOutcome, get_backend, iter_run, run_sort, run_steps
from repro.core.schedule import Schedule
from repro.errors import DimensionError
from repro.obs.events import Observer

__all__ = ["sort_grid", "sort_steps", "SortReport", "describe_algorithm", "resolve_algorithm"]


@dataclass
class SortReport:
    """Outcome of :func:`sort_grid` with the run's provenance attached."""

    algorithm: str
    side: int
    outcome: SortOutcome

    @property
    def steps(self) -> np.ndarray:
        return self.outcome.steps

    @property
    def completed(self) -> np.ndarray:
        return self.outcome.completed

    @property
    def final(self) -> np.ndarray:
        return self.outcome.final

    def steps_scalar(self) -> int:
        return self.outcome.steps_scalar()


def resolve_algorithm(
    algorithm: str | Schedule,
    side: int | None = None,
    *,
    seed: int | None = None,
) -> Schedule:
    """Coerce a family name, family spec, or explicit schedule to a schedule.

    Names resolve through the :mod:`repro.schedules` registry, which
    understands both bare family names (``"snake_1"``, ``"odd_even"``) and
    parameterized specs (``"shearsort[side=8]"``,
    ``"random_network[side=16,seed=7]"``).  ``side`` and ``seed`` fill in
    parameters a sided/seedable family needs when the spec leaves them
    out.  Unknown names raise
    :class:`~repro.errors.UnknownScheduleError`, whose message lists every
    registered family.
    """
    if isinstance(algorithm, Schedule):
        return algorithm
    # Imported lazily: repro.schedules builds on repro.core, not vice versa.
    from repro.schedules import resolve

    return resolve(algorithm, side=side, seed=seed)


_resolve = resolve_algorithm


# Historical ``engine=`` spellings and their backend-registry names.
_ENGINE_TO_BACKEND = {"numpy": "vectorized", "reference": "reference"}


def sort_grid(
    algorithm: str | Schedule,
    grid: np.ndarray,
    *,
    max_steps: int | None = None,
    engine: str = "numpy",
    raise_on_cap: bool = False,
    observer: Observer | None = None,
    backend: str | Backend | None = None,
) -> SortReport:
    """Sort a (possibly batched) grid to completion.

    Parameters
    ----------
    algorithm:
        Registry name (``"snake_1"`` etc.) or an explicit schedule.
    grid:
        ``(side, side)`` or ``(..., side, side)`` array; left unmodified.
    max_steps:
        Step cap; defaults to :func:`repro.backends.step_cap`.
    engine:
        Historical executor selector: ``"numpy"`` (vectorized,
        batch-capable) or ``"reference"`` (pure-Python oracle; single grid
        only, always raises on cap).  Ignored when ``backend`` is given.
    raise_on_cap:
        Raise :class:`~repro.errors.StepLimitExceeded` instead of reporting
        ``steps == -1`` entries.
    observer:
        Optional :class:`~repro.obs.events.Observer` forwarded to the
        driver (ambient observers installed with
        :func:`repro.obs.use_observer` apply without this argument).
    backend:
        Backend-registry name (see :func:`repro.backends.available_backends`)
        or instance; wins over ``engine`` when provided.
    """
    schedule = _resolve(algorithm, int(np.asarray(grid).shape[-1]))
    if backend is None:
        try:
            backend = _ENGINE_TO_BACKEND[engine]
        except KeyError:
            raise DimensionError(
                f"unknown engine {engine!r}; use 'numpy' or 'reference' "
                "(or pass backend=)"
            ) from None
        if engine == "reference":
            # The oracle path has always treated a capped run as an error.
            raise_on_cap = True
        elif engine == "numpy":
            # Linear-topology schedules need the rect kernels; square
            # schedules keep the historical vectorized default.
            from repro.schedules import execution_backend

            backend = execution_backend(schedule)
    outcome = run_sort(
        get_backend(backend),
        schedule,
        grid,
        max_steps=max_steps,
        raise_on_cap=raise_on_cap,
        observer=observer,
    )
    return SortReport(algorithm=schedule.name, side=outcome.rows, outcome=outcome)


def sort_steps(
    algorithm: str | Schedule,
    grid: np.ndarray,
    num_steps: int,
    *,
    start_t: int = 1,
) -> np.ndarray:
    """Grid state after exactly ``num_steps`` steps (vectorized engine)."""
    side = int(np.asarray(grid).shape[-1])
    return run_steps(
        "vectorized", _resolve(algorithm, side), grid, num_steps, start_t=start_t
    )


def trace(algorithm: str | Schedule, grid: np.ndarray, num_steps: int):
    """Iterate ``(t, snapshot)`` over the first ``num_steps`` steps."""
    schedule = _resolve(algorithm, int(np.asarray(grid).shape[-1]))
    return iter_run("vectorized", schedule, grid, num_steps)


def describe_algorithm(algorithm: str | Schedule) -> str:
    """Human-readable step cycle of an algorithm."""
    return _resolve(algorithm).describe()
