"""Shared pieces: the per-run tally, end-to-end metrics, RSS sampling,
set-up timing and the environment fingerprint."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "E2E_UNITS",
    "Tally",
    "RssSampler",
    "end_to_end",
    "environment",
    "child_env",
    "probe_setup",
    "SETUP_REPEATS",
]

#: End-to-end metrics and units, in print order.  ``error_rate`` is printed
#: on every run but reported to the JSON result with the per-layer metrics:
#: it is 0 on a correct run, and the result's ``failed``/``attempted`` keys
#: already carry it.
E2E_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cell_steps_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "certs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Number of set-up repetitions per run; the median is reported.
SETUP_REPEATS = 3
#: Seconds between two resident-memory samples.
RSS_INTERVAL_S = 0.05


@dataclass
class Tally:
    """What one measured pass did, and how many of its outputs were right.

    ``elapsed`` covers only the measured window.  A *job* is one top-level
    request (one ``sample()``, one campaign, one queued job, one
    certification sweep); ``latencies`` holds one entry per job.
    ``attempted``/``failed`` count checked operations, measured or not.
    ``marks`` holds the cumulative counts at the end of every round, from
    which the per-round rates are taken.
    """

    elapsed: float = 0.0
    trials: int = 0
    cell_steps: float = 0.0
    latencies: list[float] = field(default_factory=list)
    passed: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rounds: int = 0
    marks: list[tuple[float, ...]] = field(default_factory=list)

    def close_round(self, elapsed: float) -> None:
        self.rounds += 1
        self.elapsed = elapsed
        self.marks.append(
            (elapsed, self.trials, self.cell_steps, len(self.latencies), self.passed)
        )

    def rates(self) -> dict[str, float]:
        """Median over rounds of each per-round rate.  The median keeps a
        round slowed by another tenant of the machine from moving the
        result."""
        marks = np.asarray([(0.0, 0, 0.0, 0, 0), *self.marks])
        steps = np.diff(marks, axis=0)
        medians = np.median(steps[:, 1:] / steps[:, :1], axis=0)
        names = ("trials_per_s", "cell_steps_per_s", "jobs_per_s", "certs_per_s")
        return dict(zip(names, map(float, medians)))

    def check(self, ok: bool, message: str, *, measured: bool = True) -> bool:
        """Count one checked operation; ``measured`` ones feed ``certs_per_s``."""
        self.attempted += 1
        if ok:
            if measured:
                self.passed += 1
        else:
            self.failed += 1
            self.errors.append(message)
        return ok

    def fail(self, message: str) -> None:
        self.check(False, message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def end_to_end(tally: Tally, setup_s: float, peak_rss_mib: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    lat = np.asarray(tally.latencies if tally.latencies else [float("nan")])
    p50, p90 = np.percentile(lat, [50, 90])
    return {
        "setup_s": setup_s,
        **tally.rates(),
        "job_latency_p50_s": float(p50),
        "job_latency_p90_s": float(p90),
        "peak_rss_mib": peak_rss_mib,
    }


def _proc_rss_bytes(pid: int, page: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * page
    except (OSError, ValueError, IndexError):
        return 0


def _descendants(root: int) -> list[int]:
    """Pids below ``root``, from each process's parent in ``/proc/*/stat``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after its ')'.
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        children = parents.get(todo.pop(), [])
        out.extend(children)
        todo.extend(children)
    return out


class RssSampler:
    """Peak resident memory of this process plus all its descendants,
    sampled every :data:`RSS_INTERVAL_S` while running (Linux ``/proc``)."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def sample(self) -> None:
        me = os.getpid()
        total = sum(_proc_rss_bytes(pid, self._page) for pid in [me, *_descendants(me)])
        self.peak_bytes = max(self.peak_bytes, total)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / 2**20


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii").strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="ascii").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _interpreter_loop_ms() -> float:
    """Median time of a fixed pure-Python loop.  On a shared host the
    interpreter's speed drifts with other tenants' load; this shows how
    fast the host was when the run ended."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - began)
    return float(np.median(times)) * 1e3


def environment() -> dict[str, Any]:
    """Where the numbers were measured."""
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _read(f"{cache}/index2/size"),
        "l3_cache": _read(f"{cache}/index3/size"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "interpreter_loop_ms": round(_interpreter_loop_ms(), 3),
    }


def child_env(root: Path, work: Path) -> dict[str, str]:
    """Environment for benchmark subprocesses: the checkout's sources on
    the path, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    env["TMPDIR"] = str(work)
    return env


def probe_setup(root: Path, work: Path, workload: str) -> float:
    """Set-up time of an in-process workload: a fresh interpreter imports
    the program and prepares the workload (:mod:`pb.probe`), timed from
    spawn to exit, median of :data:`SETUP_REPEATS`."""
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        # No timeout: with one, subprocess polls the child every 50 ms and
        # the measured time comes in 50 ms steps.
        subprocess.run(
            [sys.executable, "-m", "pb.probe", workload],
            cwd=root,
            env=child_env(root, work),
            check=True,
        )
        times.append(time.perf_counter() - began)
    return float(np.median(times))
