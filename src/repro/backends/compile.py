"""One strided-slice kernel compiler for square and rectangular meshes.

Every op is compiled against a ``rows x cols`` mesh, and the square case is
simply ``rows == cols`` (with the square-specific side validation
preserved).

Because the Monte-Carlo samplers call the same ``(algorithm, side)`` pair
hundreds of times, compilation is memoized in a small LRU cache keyed by
``(schedule, rows, cols)`` — schedules are frozen, value-hashable
dataclasses, so two structurally identical schedules share an entry.  Use
:func:`compiled_schedule` to hit the cache; constructing
:class:`CompiledSchedule` directly always compiles fresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple

import numpy as np

from repro.analysis.schedule_check import ScheduleReport, check_schedule
from repro.analysis.semantics import peek_certificate
from repro.core.schedule import (
    FORWARD,
    LineOp,
    Op,
    PairOp,
    Schedule,
    WrapOp,
    lines_slice,
    pair_count,
)
from repro.errors import DimensionError

__all__ = [
    "CompiledSchedule",
    "compiled_schedule",
    "schedule_cache_info",
    "schedule_cache_clear",
    "CacheInfo",
]

Kernel = Callable[[np.ndarray], None]


def _compile_line_op(op: LineOp, rows: int, cols: int) -> Kernel:
    """Build an in-place kernel for one transposition op on grids shaped
    ``(..., rows, cols)``: a row op's pairing is governed by the column
    count, a column op's by the row count."""
    length = cols if op.axis == "row" else rows
    p = pair_count(op.offset, length)
    ls = lines_slice(op.lines)
    lo_slice = slice(op.offset, op.offset + 2 * p, 2)
    hi_slice = slice(op.offset + 1, op.offset + 2 * p, 2)
    forward = op.direction == FORWARD

    if p == 0:
        def kernel_noop(grid: np.ndarray) -> None:
            return
        return kernel_noop

    if op.axis == "row":
        def kernel(grid: np.ndarray) -> None:
            a = grid[..., ls, lo_slice]
            b = grid[..., ls, hi_slice]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            if forward:
                a[...] = lo
                b[...] = hi
            else:
                a[...] = hi
                b[...] = lo
    else:
        def kernel(grid: np.ndarray) -> None:
            a = grid[..., lo_slice, ls]
            b = grid[..., hi_slice, ls]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            if forward:
                a[...] = lo
                b[...] = hi
            else:
                a[...] = hi
                b[...] = lo

    return kernel


def _compile_wrap_op(rows: int, cols: int) -> Kernel:
    """Wrap-around comparisons: ``(h, last col)`` vs ``(h+1, first col)``."""
    def kernel(grid: np.ndarray) -> None:
        a = grid[..., : rows - 1, cols - 1]
        b = grid[..., 1:rows, 0]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        a[...] = lo
        b[...] = hi

    return kernel


def _compile_pair_op(op: PairOp) -> Kernel:
    """Single compare-exchange between two mesh cells (smaller at ``low``)."""
    (r1, c1), (r2, c2) = op.low, op.high

    def kernel(grid: np.ndarray) -> None:
        a = grid[..., r1, c1]
        b = grid[..., r2, c2]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        grid[..., r1, c1] = lo
        grid[..., r2, c2] = hi

    return kernel


def _compile_op(op: Op, rows: int, cols: int) -> Kernel:
    if isinstance(op, WrapOp):
        return _compile_wrap_op(rows, cols)
    if isinstance(op, PairOp):
        return _compile_pair_op(op)
    return _compile_line_op(op, rows, cols)


class CompiledSchedule:
    """A schedule specialized to a concrete ``rows x cols`` mesh.

    Compiling resolves every op into an in-place NumPy kernel and runs the
    static schedule verifier (:mod:`repro.analysis.schedule_check`) once as
    a pre-compile pass: *structural* violations — overlapping comparators,
    mesh bounds, the paper's even-column constraint for the wrap-around
    algorithms — refuse compilation with the historical exception types,
    while the full :class:`~repro.analysis.schedule_check.ScheduleReport`
    (policy findings included) is kept on :attr:`analysis` and cached with
    the kernels via :func:`compiled_schedule`.
    """

    def __init__(self, schedule: Schedule, rows: int, cols: int | None = None):
        if cols is None:
            cols = rows
        rows, cols = int(rows), int(cols)
        self.analysis: ScheduleReport = check_schedule(schedule, rows, cols)
        self.analysis.raise_for_structural()
        # Compile-time semantics hook: attach an already-known sortedness
        # certificate (in-memory cache only — peeking never runs the 0-1
        # interpreter, so compilation stays O(kernels)).  A REFUTED
        # schedule still compiles: executing a broken schedule is exactly
        # how the verify layer demonstrates the breakage dynamically.
        self.analysis.semantics = peek_certificate(schedule, rows, cols)
        self.schedule = schedule
        self.rows, self.cols = rows, cols
        self._steps: list[list[Kernel]] = [
            [_compile_op(op, rows, cols) for op in step] for step in schedule.steps
        ]

    @property
    def side(self) -> int:
        """Mesh side for square compilations (raises on rectangles)."""
        if self.rows != self.cols:
            raise DimensionError(
                f"side is undefined for a {self.rows}x{self.cols} compilation"
            )
        return self.rows

    def __len__(self) -> int:
        return len(self._steps)

    def apply_step(self, grid: np.ndarray, t: int) -> None:
        """Execute paper step ``t`` (1-based) in place on ``grid``."""
        if t < 1:
            raise DimensionError(f"step times are 1-based, got {t}")
        for kernel in self._steps[(t - 1) % len(self._steps)]:
            kernel(grid)

    def run(self, grid: np.ndarray, num_steps: int, *, start_t: int = 1) -> None:
        """Execute ``num_steps`` consecutive steps in place, starting at
        paper time ``start_t``."""
        for t in range(start_t, start_t + num_steps):
            self.apply_step(grid, t)


class CacheInfo(NamedTuple):
    """Snapshot of the compiled-schedule cache statistics."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


_CACHE_MAXSIZE = 128
_cache: OrderedDict[tuple[Schedule, int, int], CompiledSchedule] = OrderedDict()
_cache_lock = threading.Lock()
_inflight: dict[tuple[Schedule, int, int], threading.Event] = {}
_hits = 0
_misses = 0


def compiled_schedule(schedule: Schedule, rows: int, cols: int | None = None) -> CompiledSchedule:
    """Compile ``schedule`` for a ``rows x cols`` mesh, reusing the LRU cache.

    Schedules hash by value (name, steps, order, parity requirement), so
    repeated Monte-Carlo calls with the same ``(algorithm, side)`` pair pay
    validation and kernel construction once.  Entries are evicted least
    recently used beyond {maxsize} cached compilations.

    Concurrent callers asking for the same uncached key share a single
    compilation: the first caller compiles while the rest wait on an
    in-flight marker, then take the cached result as a hit — each key is
    compiled (and counted as a miss) exactly once, no matter how many
    threads race for it.
    """
    global _hits, _misses
    key = (schedule, int(rows), int(rows) if cols is None else int(cols))
    while True:
        with _cache_lock:
            cached = _cache.get(key)
            if cached is not None:
                _cache.move_to_end(key)
                _hits += 1
                return cached
            waiter = _inflight.get(key)
            if waiter is None:
                _inflight[key] = threading.Event()
                break
        # Another thread is compiling this key; wait for it, then re-check
        # the cache (or take over the compile if that thread failed).
        waiter.wait()
    try:
        compiled = CompiledSchedule(schedule, rows, cols)
    except BaseException:
        with _cache_lock:
            event = _inflight.pop(key)
        event.set()
        raise
    with _cache_lock:
        _misses += 1
        _cache[key] = compiled
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_MAXSIZE:
            _cache.popitem(last=False)
        event = _inflight.pop(key)
    event.set()
    return compiled


compiled_schedule.__doc__ = compiled_schedule.__doc__.format(maxsize=_CACHE_MAXSIZE)


def schedule_cache_info() -> CacheInfo:
    """Hit/miss/size statistics of the compiled-schedule cache."""
    with _cache_lock:
        return CacheInfo(_hits, _misses, _CACHE_MAXSIZE, len(_cache))


def schedule_cache_clear() -> None:
    """Drop every cached compilation and reset the statistics."""
    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0
