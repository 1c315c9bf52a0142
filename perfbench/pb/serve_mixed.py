"""``serve-mixed``: a closed loop of small jobs through two ``repro serve``
daemons sharing one store.

Why this workload: the time goes to the service layer, not the kernels:
job documents, leases, ``FileLock``s, store envelopes and daemon polling.
About 40 % of the jobs repeat a fingerprint that has already finished
(store hits), and every tenth job is submitted by both client threads at
the same moment (coalescing, or a wait on the fingerprint lock).
``JobQueue`` scans the whole jobs directory on every submit and poll, so
cost grows with the backlog; every run starts from an empty store and
runs for the same time, so the backlog grows the same way in every run.

Closed loop: one client process runs 2 threads (the core count of the
machine the benchmark was defined on); each submits a job with
``JobQueue.submit``, polls ``JobQueue.load`` every 5 ms until the job is
done, then submits its next job.  The two daemons poll the queue with
``--poll-interval 0.01``.  Jobs are ``sort_steps`` campaigns on a paper
algorithm at an even side 8-16 with 128 trials in shards of 64.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from pb.common import SETUP_REPEATS, Tally, child_env

NAME = "serve-mixed"
PRIMARY = "jobs_per_s"

THREADS = 2
DAEMONS = 2
DAEMON_POLL_S = 0.01
CLIENT_POLL_S = 0.005
ALGORITHMS = ("row_major_row_first", "row_major_col_first", "snake_1", "snake_2", "snake_3")
SIDES = (8, 10, 12, 14, 16)
TRIALS = 128
SHARD_SIZE = 64
#: Each thread's jobs follow this pattern: ``new`` is a request not seen
#: before, ``repeat`` repeats the thread's previous job, a ``new`` one (in
#: a closed loop it is done, so it is a store hit), ``pair`` is a new
#: request that both threads submit at the same moment.  40 % repeats, 10 %
#: pairs.  Repeating a job picked at random instead would let the seed
#: decide how many large jobs are served from the store, which moves the
#: cell-step rate by a fifth between seeds.
PATTERN = ("new", "repeat", "new", "repeat", "new", "new", "repeat", "new", "repeat", "pair")
#: Jobs per rate sample: the window's rates are medians over blocks of
#: this many completed jobs (about two seconds each; smaller blocks let
#: the mix of job sizes in a block move the cell-step rate).
BLOCK = 50
#: Longest job plan per thread; a run ends at its deadline well before.
PLAN_LENGTH = 2_000
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Job:
    request: dict[str, Any]
    pair: bool


def job_plan(seed: int) -> list[list[Job]]:
    """Each thread's job list, from the seed alone.

    New requests walk seeded shuffles of every (algorithm, side) pair, so
    each run gets nearly the same mix of job sizes whatever the seed; the
    seed picks their order and sampling seeds.
    """
    rng = np.random.default_rng([seed, 7])
    combos = [(a, s) for a in ALGORITHMS for s in SIDES]

    def requests():
        while True:
            for index in rng.permutation(len(combos)):
                algorithm, side = combos[index]
                yield {
                    "algorithm": algorithm,
                    "side": side,
                    "trials": TRIALS,
                    "kind": "sort_steps",
                    "seed": int(rng.integers(2**31)),
                    "shard_size": SHARD_SIZE,
                }

    own = [requests() for _ in range(THREADS)]
    shared = requests()
    plans: list[list[Job]] = [[] for _ in range(THREADS)]
    for k in range(PLAN_LENGTH):
        kind = PATTERN[k % len(PATTERN)]
        if kind == "pair":
            request = next(shared)
            for plan in plans:
                plan.append(Job(request, pair=True))
            continue
        for plan, fresh in zip(plans, own):
            if kind == "repeat":
                request = plan[-1].request
            else:
                request = next(fresh)
            plan.append(Job(request, pair=False))
    return plans


@dataclass
class Done:
    job_id: str
    latency: float
    doc: dict[str, Any] | None
    error: str = ""
    finished: float = 0.0  # perf_counter() when the client saw the job end


def _client(
    root: Path, plan: list[Job], deadline: float, barrier: threading.Barrier, out: list[Done]
) -> None:
    from repro.service import JobQueue

    queue = JobQueue(root)
    try:
        for job in plan:
            if time.monotonic() >= deadline:
                break
            if job.pair:
                try:
                    barrier.wait(timeout=JOB_TIMEOUT_S)
                except threading.BrokenBarrierError:
                    break
            began = time.perf_counter()
            doc = queue.submit(job.request)
            while True:
                time.sleep(CLIENT_POLL_S)
                current = queue.load(doc["id"])
                if current["state"] in ("done", "failed"):
                    now = time.perf_counter()
                    out.append(Done(doc["id"], now - began, current, finished=now))
                    break
                if time.perf_counter() - began > JOB_TIMEOUT_S:
                    out.append(Done(doc["id"], 0.0, None, "timed out"))
                    return
    except Exception as exc:
        out.append(Done("", 0.0, None, repr(exc)))
    finally:
        barrier.abort()  # never leave the partner waiting at a pair slot


class Daemons:
    """Two ``repro serve`` daemons on one store, started by :mod:`pb.launcher`."""

    def __init__(self, root: Path, work: Path, store: Path, traced: bool):
        self.store = store
        self.dir = work / f"daemons-{store.name}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dir.glob("*.json"):  # an earlier pair's outputs
            stale.unlink()
        for stale in self.dir.glob("ready-*"):
            stale.unlink()
        self.traced = traced
        self.procs: list[subprocess.Popen] = []
        env = child_env(root, work)
        for k in range(DAEMONS):
            cmd = [sys.executable, "-m", "pb.launcher", "--ready", str(self.dir / f"ready-{k}")]
            if traced:
                cmd += ["--trace-out", str(self.dir / f"trace-{k}.json")]
            cmd += [
                "--", "--store", str(store), "--poll-interval", str(DAEMON_POLL_S),
                "--metrics-out", str(self.dir / f"metrics-{k}.json"),
                "--owner", f"perfbench-{k}",
            ]
            with open(self.dir / f"log-{k}.txt", "ab") as log:
                self.procs.append(subprocess.Popen(
                    cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT
                ))

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while not all((self.dir / f"ready-{k}").exists() for k in range(DAEMONS)):
            if any(p.poll() is not None for p in self.procs) or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"serve daemons did not start; see {self.dir}")
            time.sleep(0.002)

    def stop(self) -> list[str]:
        """SIGTERM drain; returns problems (a daemon that had to be killed)."""
        problems = []
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for k, proc in enumerate(self.procs):
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                problems.append(f"daemon {k} did not drain on SIGTERM")
        self.procs = []
        return problems

    def metrics(self) -> dict[str, float]:
        """The daemons' own counters (``--metrics-out``), summed."""
        total: dict[str, float] = {}
        for k in range(DAEMONS):
            path = self.dir / f"metrics-{k}.json"
            if not path.exists():
                continue
            for name, metric in json.loads(path.read_text(encoding="utf-8")).items():
                if metric.get("kind") == "counter":
                    total[name] = total.get(name, 0.0) + metric["value"]
        return total

    def traces(self) -> list[dict[str, Any]]:
        return [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(self.dir.glob("trace-*.json"))
        ]


class Workload:
    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.root = root
        self.plans = job_plan(seed)
        self.daemons: Daemons | None = None
        self.passes = 0
        self.expected: dict[str, str] = {}
        self.done: list[Done] = []
        self.metrics: dict[str, float] = {}
        self.useful_grid_steps = 0.0

    def _store(self) -> Path:
        return self.work / f"store-{self.passes + 1}"

    def _start(self, traced: bool) -> Daemons:
        daemons = Daemons(self.root, self.work, self._store(), traced)
        daemons.wait_ready()
        return daemons

    def setup(self) -> float:
        """Median start-up time of a daemon pair; keeps the last pair."""
        times = []
        for _ in range(SETUP_REPEATS):
            if self.daemons is not None:
                self.daemons.stop()  # not timed: only start-up is set-up
            began = time.perf_counter()
            self.daemons = self._start(traced=False)
            times.append(time.perf_counter() - began)
        return float(np.median(times))

    def measure(self, seconds: float, tally: Tally, rec: Any = None) -> None:
        traced = rec is not None
        if self.daemons is None or self.daemons.traced != traced:
            if self.daemons is not None:
                self.daemons.stop()
            self.daemons = self._start(traced)
        daemons, self.daemons = self.daemons, None
        self.passes += 1

        done: list[Done] = []
        barrier = threading.Barrier(THREADS)
        start = time.perf_counter()
        deadline = time.monotonic() + seconds
        threads = [
            threading.Thread(
                target=_client, args=(daemons.store, plan, deadline, barrier, done)
            )
            for plan in self.plans
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        for problem in daemons.stop():
            tally.fail(problem)
        self.metrics = daemons.metrics()
        if rec is not None:
            for snapshot in daemons.traces():
                rec.merge(snapshot)
        self.done = done
        self._check(tally, daemons.store, done, start, elapsed)

    def _check(
        self, tally: Tally, store: Path, done: list[Done], start: float, elapsed: float
    ) -> None:
        """Check every job, in the order the clients saw them end.  Every
        :data:`BLOCK` jobs close a round, so the rates are medians over
        blocks of the one continuous window."""
        from repro.experiments import sample
        from repro.service import spec_from_request

        executed: dict[str, float] = {}
        in_block = 0
        for item in sorted(done, key=lambda d: d.finished):
            doc = item.doc
            if doc is None or doc["state"] != "done":
                tally.fail(f"job {item.job_id}: {item.error or (doc or {}).get('error')}")
                continue
            request = doc["request"]
            fingerprint = doc["fingerprint"]
            if fingerprint not in self.expected:
                self.expected[fingerprint] = sample(
                    request["algorithm"], side=request["side"], trials=request["trials"],
                    seed=request["seed"], shard_size=request["shard_size"],
                ).values_digest
            summary = doc["result"]
            tally.check(
                summary["values_digest"] == self.expected[fingerprint]
                and spec_from_request(request).fingerprint == fingerprint,
                f"job {item.job_id}: digest {summary['values_digest']} "
                f"!= in-process {self.expected[fingerprint]}",
            )
            tally.latencies.append(item.latency)
            trials_steps = summary["count"] * summary["mean"]
            tally.trials += summary["count"]
            tally.cell_steps += trials_steps * request["side"] ** 2
            executed[fingerprint] = trials_steps
            in_block += 1
            if in_block == BLOCK:
                in_block = 0
                tally.close_round(item.finished - start)
        if in_block or not tally.marks:
            tally.close_round(elapsed)
        self.useful_grid_steps = sum(executed.values())

        leases = sorted(p.name for p in (store / "jobs" / "leases").glob("*"))
        tally.check(not leases, f"leases left behind: {leases}", measured=False)
        served = self.metrics.get("repro_serve_leases_total", 0.0)
        tally.check(
            served == len(done),
            f"{served:g} leases for {len(done)} jobs (each job is leased once)",
            measured=False,
        )
        tally.check(
            self.metrics.get("repro_serve_reclaimed_total", 0.0) == 0,
            "a lease was reclaimed from a live daemon",
            measured=False,
        )
        puts = self.metrics.get("repro_service_store_puts_total", 0.0)
        tally.check(
            puts == len(executed),
            f"{puts:g} campaigns stored for {len(executed)} fingerprints "
            "(each fingerprint runs once)",
            measured=False,
        )

    def verify(self, tally: Tally) -> None:
        pass  # every job was checked against an in-process sample() in measure

    def layer_metrics(self, rec: Any, tally: Tally) -> dict[str, float]:
        durations = sorted(rec.samples.get("service.queue.submit_durations", []))
        quarter = max(1, len(durations) // 4)
        submitted = dict(rec.samples.get("service.queue.submitted_at", []))
        claimed = dict(rec.samples.get("service.queue.claimed_at", []))
        waits = [claimed[j] - submitted[j] for j in submitted if j in claimed]
        executed = rec.get("backends.step.grid_steps")
        return {
            "service.queue.submit_first_quartile_s": float(
                np.mean([d for _, d in durations[:quarter]])
            ),
            "service.queue.submit_last_quartile_s": float(
                np.mean([d for _, d in durations[-quarter:]])
            ),
            "service.queue_wait_p50_s": float(np.median(waits)) if waits else 0.0,
            "service.coalesced": float(
                sum(1 for d in self.done if d.doc is not None and d.doc.get("coalesced"))
            ),
            "service.cache_hits": self.metrics.get("repro_service_cache_hits_total", 0.0),
            "backends.useful_ratio": self.useful_grid_steps / executed if executed else 0.0,
        }

    def close(self) -> None:
        if self.daemons is not None:
            self.daemons.stop()
            self.daemons = None
