"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer with timers
and counters that write into a :class:`Recorder`, and returns a function
that puts the originals back.  Nothing is wrapped unless a traced run asks
for it, so end-to-end runs execute the program untouched.

Campaign shards may run in forked worker processes.  The wrappers
installed in the parent are inherited by the fork; a shard that runs in a
process other than the recorder's owner writes its counters to the
recorder's spool directory, and :meth:`Recorder.absorb_spool` folds them
back in.  ``repro serve`` daemons are separate programs: the benchmark's
launcher (:mod:`pb.launcher`) installs the wrappers there and writes the
recorder's snapshot when the daemon exits.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["Recorder", "install", "STATISTICS"]

#: The moment statistics the moments workload samples, by defining module.
#: They are wrapped where they are defined so that a wrapped statistic
#: pickles by the same qualified name, and the campaign fingerprint (which
#: names the statistic) is the same traced and untraced.
STATISTICS = (
    ("repro.zeroone.weights", "first_column_zeros"),
    ("repro.zeroone.weights", "m_statistic"),
    ("repro.zeroone.trackers", "z1_statistic"),
    ("repro.zeroone.trackers", "y1_statistic"),
)

#: Bytes one compare-exchange touches per value width: it reads both cells
#: and writes both cells.  Temporaries and cache misses are not counted,
#: which is why the byte metric is labelled "computed".
_TOUCHES_PER_COMPARATOR = 4


class Recorder:
    """Thread-safe counters, busy seconds and sample lists by name.

    ``add(name, seconds)`` counts one call of a timed layer boundary as
    ``<name>.calls`` and ``<name>_s``; ``count`` adds to a plain counter;
    ``peak`` keeps a maximum; ``sample`` appends to a list (for
    percentiles and per-call timestamps).
    """

    def __init__(self, spool_dir: str | Path | None = None):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.counts: dict[str, float] = defaultdict(float)
            self.peaks: dict[str, float] = {}
            self.samples: dict[str, list[Any]] = defaultdict(list)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.counts[f"{name}.calls"] += 1
            self.counts[f"{name}_s"] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def sample(self, name: str, value: Any) -> None:
        with self._lock:
            self.samples[name].append(value)

    def get(self, name: str) -> float:
        with self._lock:
            return self.counts.get(name, 0.0)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counts": dict(self.counts),
                "peaks": dict(self.peaks),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def merge(self, snapshot: dict[str, Any]) -> None:
        with self._lock:
            for name, value in snapshot.get("counts", {}).items():
                self.counts[name] += value
            for name, value in snapshot.get("peaks", {}).items():
                self.peaks[name] = max(self.peaks.get(name, value), value)
            for name, values in snapshot.get("samples", {}).items():
                self.samples[name].extend(values)

    def in_owner(self) -> bool:
        return os.getpid() == self.pid

    def spool(self) -> None:
        """Write this (worker-side) recorder's counters for the owner."""
        if self.spool_dir is None:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"{os.getpid()}-{uuid.uuid4().hex}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()), encoding="utf-8")
        os.replace(tmp, path)

    def absorb_spool(self) -> int:
        """Merge and delete every spooled worker snapshot; returns how many."""
        if self.spool_dir is None or not self.spool_dir.exists():
            return 0
        paths = sorted(self.spool_dir.glob("*.json"))
        for path in paths:
            self.merge(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return len(paths)


class _Patcher:
    """Replaces attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> Any:
        original = getattr(owner, attr)
        wrapper = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return wrapper

    def patch_shared(self, owners: list[Any], attr: str, wrapper: Any) -> None:
        for owner in owners:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _timed(rec: Recorder, name: str) -> Callable[[Any], Any]:
    def make(fn: Any) -> Any:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.add(name, time.perf_counter() - start)

        return wrapper

    return make


def _install_backends(rec: Recorder, p: _Patcher) -> None:
    from repro.analysis.schedule_check import op_comparators
    from repro.backends import rect, vectorized
    from repro.backends.compile import schedule_cache_info

    comparators: dict[tuple[Any, int, int], list[int]] = {}

    def per_step(compiled: Any) -> list[int]:
        key = (compiled.schedule, compiled.rows, compiled.cols)
        counts = comparators.get(key)
        if counts is None:
            counts = [
                sum(len(op_comparators(op, compiled.rows, compiled.cols)) for op in step)
                for step in compiled.schedule.steps
            ]
            comparators[key] = counts
        return counts

    def make_apply(fn: Any) -> Any:
        @functools.wraps(fn)
        def apply_step(self: Any, t: int, *, want_swaps: bool = False) -> Any:
            start = time.perf_counter()
            out = fn(self, t, want_swaps=want_swaps)
            rec.add("backends.step", time.perf_counter() - start)
            counts = per_step(self.compiled)
            batch = math.prod(self.batch_shape)
            compares = counts[(t - 1) % len(counts)] * batch
            rec.count("backends.step.grid_steps", batch)
            rec.count("backends.step.cell_compares_computed", compares)
            rec.count(
                "backends.step.bytes_computed",
                compares * _TOUCHES_PER_COMPARATOR * self.work.itemsize,
            )
            return out

        return apply_step

    p.patch(vectorized.ArrayRun, "apply_step", make_apply)
    p.patch(vectorized.ArrayRun, "done_mask", _timed(rec, "backends.detect"))

    def make_prepare(fn: Any) -> Any:
        @functools.wraps(fn)
        def prepare(self: Any, schedule: Any, grid: Any) -> Any:
            start = time.perf_counter()
            run = fn(self, schedule, grid)
            rec.add("backends.prepare", time.perf_counter() - start)
            rec.peak("workload.working_set_bytes", run.work.nbytes + run.target.nbytes)
            return run

        return prepare

    p.patch(vectorized.VectorizedBackend, "prepare", make_prepare)
    p.patch(rect.RectBackend, "prepare", make_prepare)

    original = vectorized.compiled_schedule

    @functools.wraps(original)
    def compiled_schedule(schedule: Any, rows: int, cols: int | None = None) -> Any:
        misses = schedule_cache_info().misses
        start = time.perf_counter()
        out = original(schedule, rows, cols)
        rec.add("backends.compile", time.perf_counter() - start)
        if schedule_cache_info().misses > misses:
            rec.count("backends.compile.misses")
        return out

    p.patch_shared([vectorized, rect], "compiled_schedule", compiled_schedule)


def _install_sampling(rec: Recorder, p: _Patcher) -> None:
    import importlib

    from repro import randomness
    from repro.experiments import montecarlo

    for name in ("random_permutation_mesh", "random_zero_one_mesh"):
        wrapper = _timed(rec, "randomness.draw")(getattr(randomness, name))
        p.patch_shared([randomness, montecarlo], name, wrapper)
    for module_name, name in STATISTICS:
        p.patch(importlib.import_module(module_name), name, _timed(rec, "zeroone.statistic"))


def _install_campaign(rec: Recorder, p: _Patcher) -> None:
    from repro.campaign import checkpoint, runner

    def make_shard(fn: Any) -> Any:
        @functools.wraps(fn)
        def shard(*args: Any, **kwargs: Any) -> Any:
            worker = not rec.in_owner()
            if worker:
                rec.reset()  # a fork inherits the owner's counts
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            rec.add("campaign.shard", time.perf_counter() - start)
            if worker:
                rec.spool()
            return out

        return shard

    p.patch(runner, "execute_shard", make_shard)
    p.patch(runner, "execute_shard_observed", make_shard)
    p.patch(runner, "_merge", _timed(rec, "campaign.merge"))

    def make_append(fn: Any) -> Any:
        @functools.wraps(fn)
        def append(self: Any, *args: Any, **kwargs: Any) -> Any:
            before = self.path.stat().st_size
            start = time.perf_counter()
            out = fn(self, *args, **kwargs)
            rec.add("campaign.checkpoint", time.perf_counter() - start)
            rec.count("campaign.checkpoint.bytes", self.path.stat().st_size - before)
            return out

        return append

    p.patch(checkpoint.CheckpointStore, "append", make_append)


def _install_store(rec: Recorder, p: _Patcher) -> None:
    from repro.store import local, locks

    def make_get(fn: Any) -> Any:
        @functools.wraps(fn)
        def get(self: Any, fingerprint: str) -> Any:
            start = time.perf_counter()
            payload = fn(self, fingerprint)
            rec.add("store.get", time.perf_counter() - start)
            if payload is not None:
                rec.count("store.get.hits")
            return payload

        return get

    def make_put(fn: Any) -> Any:
        @functools.wraps(fn)
        def put(self: Any, fingerprint: str, payload: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            path = fn(self, fingerprint, payload, **kwargs)
            rec.add("store.put", time.perf_counter() - start)
            written = sum(f.stat().st_size for f in Path(path).parent.glob("*.json"))
            rec.count("store.bytes_written", written)
            return path

        return put

    p.patch(local.LocalResultStore, "get", make_get)
    p.patch(local.LocalResultStore, "put", make_put)
    p.patch(locks.FileLock, "acquire", _timed(rec, "service.lock.wait"))


def _install_service(rec: Recorder, p: _Patcher) -> None:
    from repro.service import queue

    def make_submit(fn: Any) -> Any:
        @functools.wraps(fn)
        def submit(self: Any, request: dict[str, Any]) -> Any:
            start = time.perf_counter()
            doc = fn(self, request)
            elapsed = time.perf_counter() - start
            rec.add("service.queue.submit", elapsed)
            rec.sample("service.queue.submit_durations", [start, elapsed])
            rec.sample("service.queue.submitted_at", [doc["id"], time.monotonic()])
            return doc

        return submit

    def make_claim(fn: Any) -> Any:
        @functools.wraps(fn)
        def claim_pending(self: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            claimed = fn(self, **kwargs)
            rec.add("service.queue.claim", time.perf_counter() - start)
            if not claimed:
                rec.count("service.queue.empty_polls")
            now = time.monotonic()
            for doc, _lease in claimed:
                rec.sample("service.queue.claimed_at", [doc["id"], now])
            return claimed

        return claim_pending

    p.patch(queue.JobQueue, "submit", make_submit)
    p.patch(queue.JobQueue, "claim_pending", make_claim)
    p.patch(queue.JobQueue, "update", _timed(rec, "service.queue.update"))


def _install_semantics(rec: Recorder, p: _Patcher) -> None:
    from repro.analysis import semantics
    from repro.analysis.semantics import checker

    original = semantics.certify_sortedness

    @functools.wraps(original)
    def certify_sortedness(*args: Any, **kwargs: Any) -> Any:
        steps = semantics.semantics_cache_info().interpreter_steps
        start = time.perf_counter()
        cert = original(*args, **kwargs)
        rec.add("semantics.certify", time.perf_counter() - start)
        rec.count(
            "semantics.interpreter_steps",
            semantics.semantics_cache_info().interpreter_steps - steps,
        )
        rec.count("semantics.matrices", cert.inputs_checked)
        return cert

    p.patch_shared([semantics, checker], "certify_sortedness", certify_sortedness)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced layer boundary; returns the undo function."""
    patcher = _Patcher()
    for part in (
        _install_backends,
        _install_sampling,
        _install_campaign,
        _install_store,
        _install_service,
        _install_semantics,
    ):
        part(rec, patcher)
    return patcher.restore
