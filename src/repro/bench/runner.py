"""Run the benchmark suite and write ``BENCH_<timestamp>.json`` reports.

A report is a plain-JSON document::

    {"format": "repro-bench", "schema_version": 1, "suite": "smoke",
     "created": "2026-08-08T12:00:00+00:00",
     "env": {"python": "3.11.9", "platform": ..., "numpy": ..., ...},
     "cases": {
       "driver_steps_side16": {
         "group": "driver", "repeats": 5,
         "wall": {"min": ..., "mean": ..., "max": ..., "std": ...},
         "spans": {"run": {"wall": ..., "cpu": ..., "count": ...}, ...},
         "meta": {"side": 16, ...}},
       ...}}

Per case the harness runs ``setup`` once (untimed), one warmup iteration,
``repeats`` timed iterations (:class:`~repro.obs.timing.StopWatch`), and a
final iteration under a :class:`~repro.obs.prof.SpanProfiler` whose
flattened tree becomes the case's ``spans`` breakdown.  The profiled
iteration is never part of the wall statistics, so profiling overhead
cannot contaminate the regression signal.

``env`` fingerprints the machine the numbers came from; comparisons across
differing fingerprints are still performed but flagged (see
:mod:`repro.bench.compare`).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable

from repro._version import __version__
from repro.bench.cases import BenchCase
from repro.errors import BenchmarkError
from repro.obs.prof import SpanProfiler, aggregate_spans, use_profiler
from repro.obs.timing import StopWatch

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "environment_fingerprint",
    "run_case",
    "run_cases",
    "write_report",
    "validate_report",
    "load_report",
    "default_report_path",
]

BENCH_SCHEMA_VERSION = 1
_FORMAT = "repro-bench"


def _usable_cpu_count() -> int | None:
    """CPUs this process may run on (its affinity mask), not the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform (macOS, Windows)
        return os.cpu_count()


def environment_fingerprint() -> dict[str, Any]:
    """Where these numbers came from: interpreter, platform, usable CPUs, key libs."""
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": _usable_cpu_count(),
        "numpy": numpy.__version__,
        "repro": __version__,
    }


def _wall_stats(samples: list[float]) -> dict[str, float]:
    return {
        "min": min(samples),
        "mean": statistics.fmean(samples),
        "max": max(samples),
        "std": statistics.pstdev(samples) if len(samples) > 1 else 0.0,
    }


def run_case(case: BenchCase, *, repeats: int | None = None) -> dict[str, Any]:
    """Execute one case; returns its report entry (see module docstring)."""
    n = case.repeats if repeats is None else repeats
    if n < 1:
        raise BenchmarkError(f"repeats must be positive, got {n}")
    state = case.setup()
    case.body(state)  # warmup: JIT-free here, but first-touch caches are real
    samples: list[float] = []
    for _ in range(n):
        with StopWatch() as watch:
            case.body(state)
        samples.append(watch.elapsed)
    profiler = SpanProfiler()
    with use_profiler(profiler), profiler.span(case.name):
        case.body(state)
    spans = aggregate_spans(profiler.roots)
    spans.pop(case.name, None)  # the envelope span is just the iteration wall
    entry: dict[str, Any] = {
        "group": case.group,
        "repeats": n,
        "wall": _wall_stats(samples),
        "spans": spans,
    }
    if case.meta:
        entry["meta"] = dict(case.meta)
    return entry


def run_cases(
    cases: list[BenchCase],
    *,
    suite: str,
    repeats: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run ``cases`` and assemble the full report document."""
    report: dict[str, Any] = {
        "format": _FORMAT,
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "env": environment_fingerprint(),
        "cases": {},
    }
    for case in cases:
        entry = run_case(case, repeats=repeats)
        report["cases"][case.name] = entry
        if progress is not None:
            progress(
                f"{case.name:<28s} min {entry['wall']['min']:.4f}s "
                f"mean {entry['wall']['mean']:.4f}s  (x{entry['repeats']})"
            )
    return report


def validate_report(data: Any, *, source: str = "report") -> dict[str, Any]:
    """Check ``data`` is a usable bench report; return it typed as a dict.

    Raises :class:`BenchmarkError` naming the offending field — both the
    CLI (on ``--compare`` inputs) and tests lean on this as the schema
    contract.
    """
    if not isinstance(data, dict):
        raise BenchmarkError(f"{source}: not a JSON object")
    if data.get("format") != _FORMAT:
        raise BenchmarkError(
            f"{source}: format is {data.get('format')!r}, expected {_FORMAT!r}"
        )
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise BenchmarkError(
            f"{source}: unsupported schema_version {data.get('schema_version')!r}"
        )
    for key in ("suite", "created", "env", "cases"):
        if key not in data:
            raise BenchmarkError(f"{source}: missing {key!r}")
    if not isinstance(data["cases"], dict):
        raise BenchmarkError(f"{source}: 'cases' must be an object")
    for name, entry in data["cases"].items():
        if not isinstance(entry, dict):
            raise BenchmarkError(f"{source}: case {name!r} must be an object")
        wall = entry.get("wall")
        if not isinstance(wall, dict) or not {"min", "mean", "max"} <= wall.keys():
            raise BenchmarkError(
                f"{source}: case {name!r} needs wall min/mean/max stats"
            )
    return data


def load_report(path: str | Path) -> dict[str, Any]:
    """Read and validate a report file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BenchmarkError(f"bench report not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"{path} is not valid JSON: {exc}") from exc
    return validate_report(data, source=str(path))


def default_report_path(out_dir: str | Path = ".") -> Path:
    """``BENCH_<UTC timestamp>.json`` under ``out_dir``."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return Path(out_dir) / f"BENCH_{stamp}.json"


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    """Serialize ``report`` to ``path``, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path
