"""Foundation of the unified executor backend layer.

Every way of running a comparator :class:`~repro.core.schedule.Schedule`
against a grid — the vectorized NumPy kernels, the pure-Python oracle, the
processor-level mesh machine, the rectangular-mesh kernels — is expressed as
a :class:`Backend`.  A backend's single obligation is :meth:`Backend.prepare`:
turn ``(schedule, grid)`` into an :class:`ExecutorRun`, a tiny state machine
the shared driver (:mod:`repro.backends.driver`) can step, probe for
completion, and snapshot.  The driver owns everything the four historical
run loops used to duplicate: step caps, completion detection, wall timing,
and the observer event stream.

This module holds the pieces the rest of the layer builds on:

* :class:`SortOutcome` — the one result type for sort-to-completion runs,
  carrying ``(rows, cols)`` so square and rectangular meshes share it;
* :func:`step_cap` — the one step-cap policy (square and rectangular);
* :class:`ExecutorRun` / :class:`Backend` — the backend protocol;
* :func:`wants_swap_detail` — the observer capability probe behind the
  opt-in per-step swap counting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.schedule import Schedule
from repro.errors import DimensionError

__all__ = [
    "SortOutcome",
    "StepStats",
    "step_cap",
    "resolve_step_cap",
    "ExecutorRun",
    "Backend",
    "wants_swap_detail",
]


def step_cap(rows: int, cols: int | None = None) -> int:
    """A generous step cap for runs expected to finish in Theta(N) steps.

    The paper proves worst cases of Theta(N) with small constants (the
    row-major worst case is at least ``2N - 4*sqrt(N)`` and at most
    ``O(N)``); ``8*N + 8*(rows + cols) + 64`` leaves ample slack while still
    bounding runaway runs on buggy schedules.  On a square mesh this is
    ``8*N + 16*side + 64``.
    """
    if cols is None:
        cols = rows
    n_cells = rows * cols
    return 8 * n_cells + 8 * (rows + cols) + 64


def resolve_step_cap(schedule: Schedule, rows: int, cols: int | None = None) -> int:
    """The default step cap for one ``(schedule, mesh)`` pair.

    Generated schedule families whose sorting time is not Theta(N) — e.g.
    random adjacent-comparator networks, which fire one comparator per step —
    declare a provable bound in ``schedule.metadata["step_cap_hint"]``; the
    driver honours it (taking the larger of hint and :func:`step_cap`, so a
    hint can only loosen the default).  Schedules without a hint get the
    paper-calibrated :func:`step_cap`.
    """
    base = step_cap(rows, cols)
    hint = schedule.metadata.get("step_cap_hint")
    if hint is None:
        return base
    return max(base, int(hint))


@dataclass
class SortOutcome:
    """Result of a sort-to-completion run on any backend.

    Attributes
    ----------
    steps:
        Integer array (batch-shaped; 0-d for a single grid) with the first
        1-based step time after which the grid equals the target order, 0 if
        the input was already sorted, and -1 if the step cap was reached.
    completed:
        Boolean mask of batch elements that reached the target order.
    final:
        The grids after the run.
    max_steps:
        The cap that was in force.
    rows, cols:
        Mesh shape (equal on square meshes).  Inferred from ``final`` when
        not given, so historical ``SortOutcome(steps=..., completed=...,
        final=..., max_steps=...)`` constructions keep working.
    backend:
        Registry name of the backend that produced the outcome (empty for
        outcomes built outside the driver).
    """

    steps: np.ndarray
    completed: np.ndarray
    final: np.ndarray
    max_steps: int
    rows: int = -1
    cols: int = -1
    backend: str = ""

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            final = np.asarray(self.final)
            if final.ndim < 2:
                raise DimensionError(
                    f"cannot infer mesh shape from final grids of ndim {final.ndim}"
                )
            self.rows = int(final.shape[-2])
            self.cols = int(final.shape[-1])

    @property
    def side(self) -> int:
        """Mesh side for square outcomes (raises on rectangles)."""
        if self.rows != self.cols:
            raise DimensionError(
                f"side is undefined for a {self.rows}x{self.cols} outcome"
            )
        return self.rows

    @property
    def all_completed(self) -> bool:
        return bool(np.all(self.completed))

    def steps_scalar(self) -> int:
        """The step count for an unbatched run (raises if batched)."""
        if self.steps.ndim != 0:
            raise DimensionError(
                f"steps_scalar() on a batched outcome of shape {self.steps.shape}"
            )
        return int(self.steps)


@dataclass(frozen=True)
class StepStats:
    """Per-step tallies a run reports back to the driver.

    ``swaps``/``comparisons`` are ``None`` when the executor did not (or was
    not asked to) account them.
    """

    swaps: int | None = None
    comparisons: int | None = None


class ExecutorRun(ABC):
    """One in-flight run: mutable state plus the probes the driver needs.

    Concrete runs are created by :meth:`Backend.prepare` and stepped by the
    driver; they never emit observer events themselves.
    """

    rows: int
    cols: int
    batch_shape: tuple[int, ...]
    cycle_len: int

    @abstractmethod
    def apply_step(self, t: int, *, want_swaps: bool = False) -> StepStats:
        """Execute 1-based schedule step ``t`` and report its tallies.

        ``want_swaps`` asks for a per-step swap count even when accounting
        it costs extra work (the vectorized kernels must diff the grid);
        executors that count swaps for free may always report them.
        """

    @abstractmethod
    def done_mask(self) -> np.ndarray:
        """Boolean mask (batch-shaped; 0-d for one grid) of sorted grids."""

    @abstractmethod
    def materialize(self) -> np.ndarray:
        """The current grid state as an array the caller may keep."""

    def step_grid(self) -> np.ndarray | None:
        """Grid to attach to step events (``None`` if the run has no cheap
        representation; observers must treat it as read-only)."""
        return self.materialize()

    def cycle_grid(self) -> np.ndarray | None:
        """Grid to attach to cycle events."""
        return self.materialize()

    def final(self) -> np.ndarray:
        """Grid state handed to :class:`SortOutcome` when the run ends."""
        return self.materialize()

    def iter_grid(self, copy: bool) -> np.ndarray:
        """Grid yielded by the step iterator (an independent snapshot when
        ``copy`` is true; cell-level runs always materialize a fresh array)."""
        return self.materialize()


class Backend(ABC):
    """A pluggable execution substrate for comparator schedules.

    Subclasses declare their capabilities as class attributes and implement
    :meth:`prepare`.  All run-loop behaviour (caps, completion, timing,
    events) lives in :mod:`repro.backends.driver`, so a new backend is just
    a new way to apply one schedule step.
    """

    #: Registry name (``"vectorized"``, ``"reference"``, ``"mesh"``, ``"rect"``).
    name: ClassVar[str]
    #: Executor label used in ``RunStart`` events and JSONL traces.  The
    #: vectorized backend keeps the historical ``"engine"`` label so traces
    #: recorded before the backend layer remain comparable.
    event_executor: ClassVar[str]
    #: Whether ``prepare`` accepts ``(..., rows, cols)`` batches.
    supports_batch: ClassVar[bool] = False
    #: Whether non-square meshes are accepted.
    supports_rect: ClassVar[bool] = False
    #: Whether per-step swap counts are a free by-product (cell-level
    #: executors) rather than an extra grid diff (vectorized kernels).
    counts_swaps: ClassVar[bool] = False

    @abstractmethod
    def prepare(self, schedule: Schedule, grid: np.ndarray) -> ExecutorRun:
        """Validate inputs and build the run state for ``schedule`` on
        ``grid`` (the input array is never mutated)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


def wants_swap_detail(observer: object) -> bool:
    """Whether an observer opted into per-step swap counting.

    Swap counting on the vectorized backend requires copying and diffing
    the whole (possibly batched) grid every step, so it is off unless an
    attached observer sets ``wants_swap_detail = True``
    (:class:`~repro.obs.events.RecordingObserver` and
    :class:`~repro.obs.trace.JsonlTraceSink` do; the metrics observer
    does not by default).  Composite observers opt in if any child does.
    """
    return bool(getattr(observer, "wants_swap_detail", False))
