"""The shared instrumented run-loop driver.

One module owns what the four historical executors each reimplemented:
step caps, completion detection, wall timing, cap handling, and the
``RunStart``/``StepEvent``/``CycleEvent``/``RunEnd`` observer stream.  A
backend only knows how to apply one schedule step; the driver turns that
into sort-to-completion runs (:func:`run_sort`), fixed-step runs
(:func:`run_steps`), and step iterators (:func:`iter_run`).

This module is also the package's **single event-emission site**: every
``on_run_start``/``on_step``/``on_cycle``/``on_run_end`` dispatch in the
codebase goes through the ``emit_*`` helpers below (the diagnostics runner
and the processor-level machine's manual stepping mode call them too), so
observers see one schema regardless of executor.

Per-step swap counts on the vectorized backends require diffing the whole
(possibly batched) grid every step, so they are an opt-in trace detail:
the driver asks for them only when the resolved observer declares
``wants_swap_detail`` (see :func:`repro.backends.base.wants_swap_detail`).
Cell-level backends count swaps as a free by-product and always report
them.

Per-step events themselves are opt-out: an observer whose
``wants_step_events`` is False (a default :class:`~repro.obs.MetricsObserver`)
leaves :func:`run_sort` on its fast strided loop and gets the step count
in bulk, as ``RunEnd.bulk_steps``.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.backends.base import (
    Backend,
    ExecutorRun,
    SortOutcome,
    resolve_step_cap,
    wants_step_events,
    wants_swap_detail,
)
from repro.backends.registry import get_backend
from repro.core.schedule import Schedule
from repro.errors import StepLimitExceeded
from repro.obs.context import resolve_observer
from repro.obs.events import CycleEvent, Observer, RunEnd, RunStart, StepEvent
from repro.obs.prof import span
from repro.obs.timing import StopWatch

__all__ = [
    "MAX_STRIDE",
    "run_sort",
    "run_steps",
    "iter_run",
    "emit_run_start",
    "emit_step",
    "emit_cycle",
    "emit_run_end",
]


#: Most steps :func:`run_sort`'s fast path runs between two completion
#: checks.  The stride is one schedule cycle (4 steps for the paper's
#: algorithms), capped so that long-cycle generated families (a random
#: network's cycle is 2n^2 steps) replay at most this many steps per check.
MAX_STRIDE = 16


# ---------------------------------------------------------------------------
# Event emission — the only place in the package that dispatches to observers.
# ---------------------------------------------------------------------------

def emit_run_start(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`RunStart` built from ``fields``."""
    observer.on_run_start(RunStart(**fields))


def emit_step(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`StepEvent` built from ``fields``."""
    observer.on_step(StepEvent(**fields))


def emit_cycle(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`CycleEvent` built from ``fields``."""
    observer.on_cycle(CycleEvent(**fields))


def emit_run_end(observer: Observer, **fields: Any) -> None:
    """Dispatch a :class:`RunEnd` built from ``fields``."""
    observer.on_run_end(RunEnd(**fields))


# ---------------------------------------------------------------------------
# Driver internals.
# ---------------------------------------------------------------------------

def _start_run(
    backend: Backend,
    run: ExecutorRun,
    schedule: Schedule,
    obs: Observer | None,
    max_steps: int | None,
) -> None:
    if obs is None:
        return
    emit_run_start(
        obs,
        executor=backend.event_executor,
        algorithm=schedule.name,
        side=run.rows,
        rows=run.rows,
        cols=run.cols,
        batch_shape=run.batch_shape,
        max_steps=max_steps,
        order=schedule.order,
    )


def _step_and_emit(
    run: ExecutorRun, t: int, obs: Observer | None, want_swaps: bool
) -> None:
    """Apply step ``t`` and, with an observer attached, emit its events."""
    if obs is None:
        run.apply_step(t)
        return
    stats = run.apply_step(t, want_swaps=want_swaps)
    emit_step(
        obs, t=t, grid=run.step_grid(), swaps=stats.swaps,
        comparisons=stats.comparisons,
    )
    if t % run.cycle_len == 0:
        emit_cycle(obs, cycle=t // run.cycle_len, t=t, grid=run.cycle_grid())


def _drop_sorted(run: ExecutorRun, working: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Compact the sorted grids out of ``run``; returns the new ``working``."""
    keep = steps[working] < 0
    if keep.all():
        return working
    run.compact(keep)
    return working[keep]


def _replay(
    run: ExecutorRun, snapshot: np.ndarray, rows: np.ndarray, t0: int, t1: int
) -> np.ndarray:
    """Exact step times of the working rows ``rows``, which were unsorted in
    ``snapshot`` (the state after step ``t0``) and sorted after step ``t1``.

    Replays steps ``t0 + 1 .. t1 - 1`` on those rows only; a row still
    unsorted after them sorted at ``t1``.
    """
    sub = run.replay_run(snapshot, rows)
    found = np.full(rows.size, t1, dtype=np.int64)
    pending = np.ones(rows.size, dtype=bool)
    for t in range(t0 + 1, t1):
        sub.apply_step(t)
        now = np.asarray(sub.done_mask()).reshape(-1) & pending
        found[now] = t
        pending &= ~now
        if not pending.any():
            break
    return found


def _scalarize(value: np.ndarray, batched: bool) -> Any:
    """Single-grid backends historically report plain ints/bools in
    ``RunEnd`` (observers match on ``is True``); batch-capable backends
    report arrays."""
    if batched:
        return np.asarray(value)
    arr = np.asarray(value)
    return bool(arr) if arr.dtype == bool else int(arr)


# ---------------------------------------------------------------------------
# Public driver entry points.
# ---------------------------------------------------------------------------

def run_sort(
    backend: str | Backend,
    schedule: Schedule,
    grid: np.ndarray,
    *,
    max_steps: int | None = None,
    raise_on_cap: bool = False,
    observer: Observer | None = None,
) -> SortOutcome:
    """Run ``schedule`` on ``grid`` until every grid in the batch reaches
    its target order (or the step cap is hit).

    Parameters
    ----------
    backend:
        Registry name or :class:`Backend` instance.
    schedule:
        Algorithm schedule (see :mod:`repro.core.algorithms`).
    grid:
        ``(rows, cols)`` array — or ``(..., rows, cols)`` on batch-capable
        backends; never modified.
    max_steps:
        Step cap; defaults to :func:`repro.backends.base.resolve_step_cap`
        (the paper-calibrated :func:`~repro.backends.base.step_cap`, loosened
        by a schedule's ``step_cap_hint`` metadata when present).
    raise_on_cap:
        If True, raise :class:`StepLimitExceeded` when the cap is hit with
        unsorted grids; otherwise report ``steps == -1`` for those entries.
    observer:
        Optional :class:`~repro.obs.events.Observer`; falls back to the
        ambient observer installed with :func:`repro.obs.use_observer`.
        The loop is the uninstrumented fast path when no observer is
        resolved or the resolved one's ``wants_step_events`` is False.

    Notes
    -----
    Sorted grids are fixed points of every schedule in this package (the
    test suite verifies this), so the first time a grid matches the target
    it stays matched and the recorded step count is exact — this mirrors
    the paper's t_f, the step at which "the sorting algorithm is complete".

    The fixed-point property is also what makes the fast path exact.  With
    no observer, or one whose ``wants_step_events`` is False, on array
    backends, the loop runs strides of ``min(cycle_len, MAX_STRIDE)`` steps
    and checks completion once per stride.  Grids that sorted inside a
    stride are replayed step by step from the stride's snapshot to find
    their exact t_f, then dropped from the working batch; ``final``
    restores them from their targets.  Such an observer still sees
    ``RunStart`` and ``RunEnd``, whose ``bulk_steps`` is the step count the
    stride-1 loop would have emitted one event at a time: the slowest
    grid's t_f, or ``max_steps`` when the cap was hit.  With an observer
    that wants step events, or on the cell-level oracles, the stride is one
    step and nothing is dropped, so every step event sees the full batch.
    """
    be = get_backend(backend)
    # Spans cost one ContextVar read when no profiler is installed (see
    # repro.obs.prof) — per stride, never per step on the fast path.
    with span("run", backend=be.name, algorithm=schedule.name):
        with span("compile"):
            run = be.prepare(schedule, grid)
        if max_steps is None:
            max_steps = resolve_step_cap(schedule, run.rows, run.cols)
        obs = resolve_observer(observer)
        want_swaps = be.counts_swaps or (obs is not None and wants_swap_detail(obs))
        fast = run.compactable and (obs is None or not wants_step_events(obs))
        # The fast path emits no per-step events, whatever the observer.
        step_obs = None if fast else obs
        stride = min(run.cycle_len, MAX_STRIDE) if fast else 1

        batch_shape = run.batch_shape
        # Flat per-grid step times (-1 while unsorted) and, for every row of
        # the working batch, its flat index in the full batch.
        done = np.asarray(run.done_mask()).reshape(-1)
        steps = np.full(done.size, -1, dtype=np.int64)
        steps[done] = 0
        working = np.arange(done.size)

        _start_run(be, run, schedule, obs, max_steps)
        watch = StopWatch().start()
        with span("kernel"):
            if fast:
                working = _drop_sorted(run, working, steps)
            t = 0
            while t < max_steps and np.any(steps[working] < 0):
                t0, t = t, min(t + stride, max_steps)
                snap = run.snapshot() if t - t0 > 1 else None
                with span("step"):
                    for u in range(t0 + 1, t + 1):
                        _step_and_emit(run, u, step_obs, want_swaps)
                with span("detect"):
                    newly = np.asarray(run.done_mask()).reshape(-1) & (steps[working] < 0)
                if not np.any(newly):
                    continue
                rows = np.flatnonzero(newly)
                if snap is None:
                    steps[working[rows]] = t
                else:
                    with span("replay"):
                        steps[working[rows]] = _replay(run, snap, rows, t0, t)
                if fast:
                    working = _drop_sorted(run, working, steps)
    done = steps >= 0
    if obs is not None:
        bulk_steps = None
        if fast:
            bulk_steps = int(steps.max(initial=0)) if done.all() else max_steps
        emit_run_end(
            obs,
            steps=_scalarize(steps.reshape(batch_shape), be.supports_batch),
            completed=_scalarize(done.reshape(batch_shape), be.supports_batch),
            wall_time=watch.elapsed,
            bulk_steps=bulk_steps,
        )

    if raise_on_cap and not np.all(done):
        raise StepLimitExceeded(max_steps, int(np.sum(~done)))
    return SortOutcome(
        steps=steps.reshape(batch_shape),
        completed=done.reshape(batch_shape),
        final=run.final(),
        max_steps=max_steps,
        rows=run.rows,
        cols=run.cols,
        backend=be.name,
    )


def run_steps(
    backend: str | Backend,
    schedule: Schedule,
    grid: np.ndarray,
    num_steps: int,
    *,
    start_t: int = 1,
    observer: Observer | None = None,
) -> np.ndarray:
    """Return the grid state after exactly ``num_steps`` schedule steps."""
    be = get_backend(backend)
    with span("run", backend=be.name, algorithm=schedule.name):
        with span("compile"):
            run = be.prepare(schedule, grid)
        obs = resolve_observer(observer)
        want_swaps = be.counts_swaps or (obs is not None and wants_swap_detail(obs))
        _start_run(be, run, schedule, obs, num_steps)
        watch = StopWatch().start()
        with span("kernel"):
            for t in range(start_t, start_t + num_steps):
                _step_and_emit(run, t, obs, want_swaps)
    if obs is not None:
        emit_run_end(
            obs, steps=num_steps, completed=None,
            wall_time=watch.elapsed,
        )
    return run.final()


def iter_run(
    backend: str | Backend,
    schedule: Schedule,
    grid: np.ndarray,
    num_steps: int,
    *,
    start_t: int = 1,
    copy: bool = True,
    observer: Observer | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(t, grid_after_step_t)`` for ``num_steps`` consecutive steps.

    With ``copy=True`` (default) each yielded grid is an independent
    snapshot; with ``copy=False`` backends that keep a live working buffer
    yield it directly (cheaper when the consumer only reads per-step
    statistics).  An observer receives the same event stream as
    :func:`run_steps`; ``on_run_end`` fires only if the iterator is
    exhausted.
    """
    be = get_backend(backend)
    # No kernel span here: a generator's frame is suspended at every yield,
    # so an open span would bill the consumer's code to the driver.
    with span("compile"):
        run = be.prepare(schedule, grid)
    obs = resolve_observer(observer)
    want_swaps = be.counts_swaps or (obs is not None and wants_swap_detail(obs))
    _start_run(be, run, schedule, obs, num_steps)
    watch = StopWatch().start()
    for t in range(start_t, start_t + num_steps):
        _step_and_emit(run, t, obs, want_swaps)
        yield t, run.iter_grid(copy)
    if obs is not None:
        emit_run_end(
            obs, steps=num_steps, completed=None,
            wall_time=watch.elapsed,
        )
