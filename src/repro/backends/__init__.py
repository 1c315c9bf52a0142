"""Unified executor backend layer.

One driver (:mod:`repro.backends.driver`) runs any registered backend —
``"vectorized"``, ``"reference"``, ``"mesh"``, ``"rect"`` — over one
schedule compiler with an LRU compilation cache, producing one
:class:`SortOutcome` type.  It is the only way to run a schedule:
:func:`run_sort` (to completion), :func:`run_steps` (a fixed number of
steps) and :func:`iter_run` (step by step).
"""

from repro.backends.base import (
    Backend,
    ExecutorRun,
    SortOutcome,
    StepStats,
    step_cap,
    wants_swap_detail,
)
from repro.backends.compile import (
    CacheInfo,
    CompiledSchedule,
    compiled_schedule,
    schedule_cache_clear,
    schedule_cache_info,
)
from repro.backends.driver import iter_run, run_sort, run_steps
from repro.backends.registry import (
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Backend",
    "ExecutorRun",
    "SortOutcome",
    "StepStats",
    "step_cap",
    "wants_swap_detail",
    "CacheInfo",
    "CompiledSchedule",
    "compiled_schedule",
    "schedule_cache_clear",
    "schedule_cache_info",
    "run_sort",
    "run_steps",
    "iter_run",
    "get_backend",
    "register_backend",
    "available_backends",
]
