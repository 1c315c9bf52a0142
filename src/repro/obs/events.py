"""Event model of the observability subsystem.

Every backend — vectorized, reference, mesh, rect — reports through the
same four lifecycle events, dispatched from a single site: the unified
run-loop driver (:mod:`repro.backends.driver`).  The diagnostics runner and
the mesh machine's manual-stepping mode route through the driver's
``emit_*`` helpers as well, so an :class:`Observer` sees one schema no
matter how a run was executed:

``on_run_start``
    Once per run, before the first step, with the run's static facts
    (executor, algorithm, side, batch shape, step cap).
``on_step``
    Once per executed schedule step, after the step's comparators have
    fired.  Carries the 1-based step time, a *read-only view* of the live
    working grid, and (when the executor can account them cheaply) the
    number of swaps and comparisons that step performed.
``on_cycle``
    Once per completed schedule cycle (every ``len(schedule.steps)`` steps),
    optionally carrying derived per-cycle statistics in ``info``.
``on_run_end``
    Once per run with the outcome: step counts, completion, wall time.

Observers must treat event grids as immutable; executors pass their live
working buffers to avoid copies on the hot path.  Dispatch is guarded at
the run level — an executor given no observer runs its original uninstrumented
loop, which is the package's zero-overhead-when-disabled guarantee (see
docs/OBSERVABILITY.md).

On top of the run-level stream, the sharded campaign layer
(:mod:`repro.campaign`) reports three **campaign-level** events, emitted by
the campaign runner in the coordinating process (never from workers — a
shard executing in a worker process is deliberately unobserved at the run
level, since its events could not reach the parent's observer anyway):

``on_campaign_start``
    Once per campaign, with the shard plan (trials, shards, workers,
    backend) and how many shards were restored from a checkpoint.
``on_shard_end``
    Once per shard as it completes — whether computed fresh, retried after
    a worker failure (``attempts > 1``), or restored from a checkpoint.
``on_campaign_end``
    Once per campaign with the completion tally and wall time.

The campaign *service* layer (:mod:`repro.store` / :mod:`repro.service`)
adds two more event kinds on the same stream:

``on_store_event``
    One content-addressed result-store operation — a cache ``hit`` or
    ``miss`` keyed by campaign fingerprint, a ``put`` of a fresh result,
    an LRU ``evict``, or a ``quarantine`` of a corrupted payload.
``on_job_update``
    One async-job state transition (``pending`` → ``running`` →
    ``done``/``failed``), including whether the job short-circuited on a
    cache hit or was coalesced onto another in-flight submission of the
    same fingerprint.  Serve processes additionally report job-lease
    transitions (``leased``/``reclaimed``/``released``) and
    cross-process fingerprint-lock waits (``lock_wait``) on the same
    event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "RunStart",
    "StepEvent",
    "CycleEvent",
    "RunEnd",
    "CampaignStart",
    "ShardEnd",
    "CampaignEnd",
    "StoreEvent",
    "JobUpdate",
    "Observer",
    "CompositeObserver",
    "RecordingObserver",
]


@dataclass(frozen=True)
class RunStart:
    """Static facts of a run, dispatched before the first step.

    ``rows``/``cols`` carry the mesh shape for rectangular runs; they
    default to ``side`` so square-only constructions keep working (and
    ``side`` mirrors ``rows`` for historical consumers).
    """

    executor: str
    algorithm: str
    side: int
    batch_shape: tuple[int, ...] = ()
    max_steps: int | None = None
    order: str = ""
    rows: int = -1
    cols: int = -1

    def __post_init__(self) -> None:
        if self.rows < 0:
            object.__setattr__(self, "rows", self.side)
        if self.cols < 0:
            object.__setattr__(self, "cols", self.side)


@dataclass(frozen=True)
class StepEvent:
    """One executed schedule step.

    ``grid`` is the executor's live working buffer (or ``None`` for
    executors that do not expose one); observers must not mutate it.
    ``swaps``/``comparisons`` are per-step tallies when the executor tracks
    them (the mesh machine and the instrumented engine do), else ``None``.
    """

    t: int
    grid: np.ndarray | None = None
    swaps: int | None = None
    comparisons: int | None = None


@dataclass(frozen=True)
class CycleEvent:
    """End of one full schedule cycle (``cycle`` is 1-based)."""

    cycle: int
    t: int
    grid: np.ndarray | None = None
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunEnd:
    """Outcome of a run.

    ``steps`` mirrors :attr:`repro.backends.SortOutcome.steps` for
    sort-to-completion runs (batch-shaped; -1 where the cap was hit) and is
    the executed step count for fixed-step runs.
    """

    steps: Any = None
    completed: Any = None
    wall_time: float = 0.0


@dataclass(frozen=True)
class CampaignStart:
    """Static facts of a sharded Monte-Carlo campaign, before any shard runs.

    ``campaign`` is the spec fingerprint (also the checkpoint file key);
    ``resumed_shards`` counts shards restored from a checkpoint rather than
    recomputed.
    """

    campaign: str
    algorithm: str
    side: int
    trials: int
    num_shards: int
    shard_size: int
    workers: int
    backend: str
    kind: str = "sort_steps"
    resumed_shards: int = 0


@dataclass(frozen=True)
class ShardEnd:
    """One shard of a campaign finished (fresh, retried, or from checkpoint).

    ``attempts`` is 1 for a first-try success and grows with per-shard
    retries after worker failures; ``from_checkpoint`` marks shards whose
    values were restored rather than recomputed (their ``elapsed`` is 0).

    ``metrics``/``spans`` carry the worker-side observability snapshot
    when the coordinator requested collection (an observer or profiler was
    attached): ``metrics`` is the worker registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.as_dict` form (merged by
    :class:`~repro.obs.metrics.MetricsObserver`), ``spans`` the shard's
    serialized :class:`~repro.obs.prof.Span` tree.  Both are ``None`` for
    unobserved campaigns and for shards restored from checkpoints that
    were written without collection.
    """

    campaign: str
    index: int
    trials: int
    elapsed: float = 0.0
    attempts: int = 1
    from_checkpoint: bool = False
    metrics: dict[str, Any] | None = None
    spans: dict[str, Any] | None = None


@dataclass(frozen=True)
class CampaignEnd:
    """Outcome of a campaign: how much of the shard plan completed.

    ``complete`` is False for budgeted partial runs (``max_shards``) —
    a later ``resume=True`` run finishes the plan.
    """

    campaign: str
    completed_shards: int
    num_shards: int
    trials: int
    elapsed: float = 0.0
    complete: bool = True


#: The result-store operations a :class:`StoreEvent` can report.
STORE_OPS = ("hit", "miss", "put", "evict", "quarantine")


@dataclass(frozen=True)
class StoreEvent:
    """One operation against a content-addressed result store.

    ``fingerprint`` is the :attr:`~repro.campaign.spec.CampaignSpec.fingerprint`
    the operation was keyed on; ``store`` names the store instance (the
    local backend reports its root directory).  ``bytes`` carries the
    payload size where the store knows it (puts and evictions).
    """

    op: str
    fingerprint: str
    store: str = ""
    bytes: int | None = None


@dataclass(frozen=True)
class JobUpdate:
    """One state transition of an asynchronous campaign job.

    ``state`` is one of :data:`repro.service.JOB_STATES`
    (``pending``/``running``/``done``/``failed``) or, on the durable-queue
    side, one of :data:`repro.service.LEASE_STATES` — ``leased`` /
    ``reclaimed`` / ``released`` for job-lease transitions made by serve
    processes, and ``lock_wait`` for a flight that blocked on the
    cross-process fingerprint lock.  ``cache_hit`` marks jobs that
    short-circuited on the result store without executing any campaign;
    ``coalesced`` marks submissions that attached to an
    already-in-flight job for the same fingerprint (single-flight).
    ``error`` carries the failure ``repr`` for ``failed`` transitions.
    """

    job_id: str
    fingerprint: str
    state: str
    cache_hit: bool = False
    coalesced: bool = False
    error: str = ""


class Observer:
    """Base observer: all hooks are no-ops; subclass and override.

    Executors duck-type against this interface, so any object with the four
    ``on_*`` methods works; subclassing just spares you the boilerplate.

    ``wants_swap_detail`` tells the driver whether to pay for per-step swap
    counts on backends where accounting them costs a full grid diff
    (cell-level backends report swaps regardless).  Observers that consume
    ``StepEvent.swaps`` should set it to True.
    """

    wants_swap_detail = False

    def on_run_start(self, event: RunStart) -> None:  # pragma: no cover - no-op
        pass

    def on_step(self, event: StepEvent) -> None:  # pragma: no cover - no-op
        pass

    def on_cycle(self, event: CycleEvent) -> None:  # pragma: no cover - no-op
        pass

    def on_run_end(self, event: RunEnd) -> None:  # pragma: no cover - no-op
        pass

    def on_campaign_start(self, event: CampaignStart) -> None:  # pragma: no cover - no-op
        pass

    def on_shard_end(self, event: ShardEnd) -> None:  # pragma: no cover - no-op
        pass

    def on_campaign_end(self, event: CampaignEnd) -> None:  # pragma: no cover - no-op
        pass

    def on_store_event(self, event: StoreEvent) -> None:  # pragma: no cover - no-op
        pass

    def on_job_update(self, event: JobUpdate) -> None:  # pragma: no cover - no-op
        pass


class CompositeObserver(Observer):
    """Fan one event stream out to several observers, in order."""

    def __init__(self, observers: list[Observer] | tuple[Observer, ...]):
        self.observers = list(observers)

    @property
    def wants_swap_detail(self) -> bool:
        return any(
            getattr(obs, "wants_swap_detail", False) for obs in self.observers
        )

    def on_run_start(self, event: RunStart) -> None:
        for obs in self.observers:
            obs.on_run_start(event)

    def on_step(self, event: StepEvent) -> None:
        for obs in self.observers:
            obs.on_step(event)

    def on_cycle(self, event: CycleEvent) -> None:
        for obs in self.observers:
            obs.on_cycle(event)

    def on_run_end(self, event: RunEnd) -> None:
        for obs in self.observers:
            obs.on_run_end(event)

    def on_campaign_start(self, event: CampaignStart) -> None:
        for obs in self.observers:
            obs.on_campaign_start(event)

    def on_shard_end(self, event: ShardEnd) -> None:
        for obs in self.observers:
            obs.on_shard_end(event)

    def on_campaign_end(self, event: CampaignEnd) -> None:
        for obs in self.observers:
            obs.on_campaign_end(event)

    def on_store_event(self, event: StoreEvent) -> None:
        for obs in self.observers:
            obs.on_store_event(event)

    def on_job_update(self, event: JobUpdate) -> None:
        for obs in self.observers:
            obs.on_job_update(event)


class RecordingObserver(Observer):
    """Keep every event in memory — the test-suite workhorse.

    Grids attached to step/cycle events are live buffers, so they are
    snapshotted (copied) on receipt when ``copy_grids`` is true.  Recording
    is for inspection, so it opts into per-step swap detail.
    """

    wants_swap_detail = True

    def __init__(self, *, copy_grids: bool = False):
        self.copy_grids = copy_grids
        self.run_starts: list[RunStart] = []
        self.steps: list[StepEvent] = []
        self.cycles: list[CycleEvent] = []
        self.run_ends: list[RunEnd] = []
        self.campaign_starts: list[CampaignStart] = []
        self.shard_ends: list[ShardEnd] = []
        self.campaign_ends: list[CampaignEnd] = []
        self.store_events: list[StoreEvent] = []
        self.job_updates: list[JobUpdate] = []

    def on_run_start(self, event: RunStart) -> None:
        self.run_starts.append(event)

    def on_step(self, event: StepEvent) -> None:
        if self.copy_grids and event.grid is not None:
            event = StepEvent(
                t=event.t,
                grid=event.grid.copy(),
                swaps=event.swaps,
                comparisons=event.comparisons,
            )
        self.steps.append(event)

    def on_cycle(self, event: CycleEvent) -> None:
        if self.copy_grids and event.grid is not None:
            event = CycleEvent(
                cycle=event.cycle, t=event.t, grid=event.grid.copy(), info=event.info
            )
        self.cycles.append(event)

    def on_run_end(self, event: RunEnd) -> None:
        self.run_ends.append(event)

    def on_campaign_start(self, event: CampaignStart) -> None:
        self.campaign_starts.append(event)

    def on_shard_end(self, event: ShardEnd) -> None:
        self.shard_ends.append(event)

    def on_campaign_end(self, event: CampaignEnd) -> None:
        self.campaign_ends.append(event)

    def on_store_event(self, event: StoreEvent) -> None:
        self.store_events.append(event)

    def on_job_update(self, event: JobUpdate) -> None:
        self.job_updates.append(event)

    @property
    def step_times(self) -> list[int]:
        return [ev.t for ev in self.steps]
