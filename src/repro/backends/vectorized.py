"""Vectorized (batched) NumPy backend.

The run state is a working copy of the input batch plus a cached
:class:`~repro.backends.compile.CompiledSchedule`; each step is a handful
of strided-slice ``np.minimum``/``np.maximum`` kernels, so a whole batch of
independent grids shaped ``(..., side, side)`` advances in one call — how
the Monte-Carlo experiments simulate hundreds of permutations at once.

Per-step swap counts are not a by-product here: they require diffing the
grid against a pre-step copy, so :class:`ArrayRun` only does that when the
driver asks (``want_swaps=True``).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, ExecutorRun, StepStats
from repro.backends.compile import CompiledSchedule, compiled_schedule
from repro.core.orders import target_grid, validate_grid
from repro.core.schedule import Schedule

__all__ = ["ArrayRun", "VectorizedBackend"]


class ArrayRun(ExecutorRun):
    """Run state shared by the array-kernel backends (square and rect).

    Supports the driver's strided fast path: :meth:`compact` drops grids
    that have sorted from the working batch (``work``/``target`` and
    ``batch_shape`` then describe only the grids still active), and
    :meth:`final` puts the full batch back together — a sorted grid is a
    fixed point of every schedule, so its final state is its target.

    A batch whose grids all have the same target (every batch of
    permutations of one size) stores that target once; ``target`` is then a
    read-only broadcast view of it.
    """

    compactable = True

    def __init__(self, compiled: CompiledSchedule, work: np.ndarray, target: np.ndarray):
        self.compiled = compiled
        self.work = work
        self.rows = compiled.rows
        self.cols = compiled.cols
        self.batch_shape = tuple(work.shape[:-2])
        self.cycle_len = len(compiled)
        targets = target.reshape(-1, self.rows, self.cols)
        #: The target every grid shares, or None if the targets differ.
        self._shared: np.ndarray | None = None
        if len(targets) > 1 and bool(np.all(targets == targets[0])):
            self._shared = targets[0].copy()
            target = np.broadcast_to(self._shared, target.shape)
        self.target = target
        self._full_target = target
        #: Flat batch indices of the working rows, once compacted.
        self._active: np.ndarray | None = None

    def apply_step(self, t: int, *, want_swaps: bool = False) -> StepStats:
        if not want_swaps:
            self.compiled.apply_step(self.work, t)
            return StepStats()
        before = self.work.copy()
        self.compiled.apply_step(self.work, t)
        swaps = int(np.count_nonzero(before != self.work)) // 2
        return StepStats(swaps=swaps)

    def done_mask(self) -> np.ndarray:
        return np.all(self.work == self.target, axis=(-2, -1))

    def materialize(self) -> np.ndarray:
        return self.work

    def iter_grid(self, copy: bool) -> np.ndarray:
        return self.work.copy() if copy else self.work

    def snapshot(self) -> np.ndarray:
        return self.work.copy()

    def _targets_of(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """Targets of the working grids ``rows`` (indices or a mask), which
        are shaped ``shape``."""
        if self._shared is not None:
            return np.broadcast_to(self._shared, shape)
        return self.target.reshape(-1, self.rows, self.cols)[rows]

    def replay_run(self, snapshot: np.ndarray, rows: np.ndarray) -> "ArrayRun":
        grids = snapshot.reshape(-1, self.rows, self.cols)[rows]
        return ArrayRun(self.compiled, grids, self._targets_of(rows, grids.shape))

    def compact(self, keep: np.ndarray) -> None:
        flat = (-1, self.rows, self.cols)
        if self._active is None:
            self._active = np.arange(int(np.prod(self.batch_shape, dtype=np.int64)))
        self.work = self.work.reshape(flat)[keep]
        self.target = self._targets_of(keep, self.work.shape)
        self._active = self._active[keep]
        self.batch_shape = (len(self._active),)

    def final(self) -> np.ndarray:
        if self._active is None:
            return self.work
        out = self._full_target.copy()
        out.reshape(-1, self.rows, self.cols)[self._active] = self.work
        return out


class VectorizedBackend(Backend):
    """The batched strided-slice executor (historical ``engine`` module)."""

    name = "vectorized"
    event_executor = "engine"
    supports_batch = True
    supports_rect = False
    counts_swaps = False

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> ArrayRun:
        work = np.array(grid, copy=True)
        side = validate_grid(work)
        compiled = compiled_schedule(schedule, side)
        target = target_grid(work, side, schedule.order)
        return ArrayRun(compiled, work, target)
