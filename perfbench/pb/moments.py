"""``moments-campaign``: the E-L4 / E-L9 moment estimates as campaigns.

Why this workload: it runs the sharded, checkpointed campaign path with a
process pool, but each trial takes only one or two schedule steps and
never runs to completion.  Kernels take under 5 % of shard time and
completion detection never runs; the time goes to random 0-1 draws,
``Backend.prepare`` (copy, validate, target), the statistics, shard
pickling, checkpoint appends and the merge.  It is the workload on which a
hot-loop optimisation should change nothing, and the one that shows
process-pool and checkpoint costs.

One round: five ``sample(kind="statistic")`` campaigns over random 0-1
matrices at side 32, each 20 000 trials with ``shard_size=1000``,
``workers=2`` and a fresh ``checkpoint_dir``.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from pb import pinned
from pb.common import Tally, probe_setup
from pb.tracing import STATISTICS

NAME = "moments-campaign"
PRIMARY = "trials_per_s"

SIDE = 32
TRIALS = 20_000
SHARD_SIZE = 1_000
WORKERS = 2


@dataclass(frozen=True)
class Campaign:
    algorithm: str
    statistic: tuple[str, str]  # (module, function)
    steps: int  # schedule steps before the statistic is taken
    theory: str  # exact value (or lower bound) in repro.theory.moments
    theory_takes_n: bool  # the theory function takes n = side/2, not side
    lower_bound_only: bool = False

    @property
    def label(self) -> str:
        return f"{self.algorithm}/{self.statistic[1]}/t{self.steps}"

    def statistic_fn(self) -> Any:
        # Looked up at call time so a traced run passes the wrapped statistic.
        module, name = self.statistic
        return getattr(importlib.import_module(module), name)

    def expected(self, side: int) -> float:
        from repro.theory import moments

        return float(getattr(moments, self.theory)(side // 2 if self.theory_takes_n else side))


CAMPAIGNS = (
    Campaign("row_major_row_first", STATISTICS[0], 1, "e_Z1_row_first", True),
    Campaign("row_major_row_first", STATISTICS[1], 1, "e_M_lower_row_first_paper", True,
             lower_bound_only=True),
    # Column-first: Z1 is taken after the first row sort, which is step 2.
    Campaign("row_major_col_first", STATISTICS[0], 2, "e_Z1_col_first", True),
    Campaign("snake_1", STATISTICS[2], 1, "e_Z1_0_snake1", False),
    Campaign("snake_2", STATISTICS[3], 1, "e_Y1_0_snake2", False),
)

#: Allowed distance of a pooled moment mean from the exact value, in
#: standard errors of the mean.
SEM_TOLERANCE = 4.0

#: The pinned-digest probe runs the measured path (the process pool, a
#: fresh checkpoint directory, the merge) with three shards per worker.
PIN_SEED = 1993
PIN_TRIALS = 6_000


def prepare() -> None:
    """Import the sampler and statistics, compile the schedules."""
    from repro.backends import compiled_schedule
    from repro.schedules import build_schedule

    import repro.experiments  # noqa: F401  (the sampler's import cost)

    for campaign in CAMPAIGNS:
        campaign.statistic_fn()
        compiled_schedule(build_schedule(campaign.algorithm, SIDE), SIDE)


def _sample(campaign: Campaign, trials: int, seed: Any, **execution: Any) -> Any:
    from repro.experiments import sample

    return sample(
        campaign.algorithm, side=SIDE, trials=trials, kind="statistic",
        statistic=campaign.statistic_fn(), num_steps=campaign.steps,
        seed=seed, shard_size=SHARD_SIZE, **execution,
    )


def pin_entries(checkpoint_dir: Path) -> dict[str, str]:
    """``{label: values_digest}`` of the fixed-seed probe; ``checkpoint_dir``
    must be new (see :mod:`pb.pin`)."""
    return {
        c.label: _sample(
            c, PIN_TRIALS, (PIN_SEED, i), workers=WORKERS, checkpoint_dir=checkpoint_dir
        ).values_digest
        for i, c in enumerate(CAMPAIGNS)
    }


class Workload:
    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.root = root
        self.passes = 0
        self.campaigns = 0
        self.span_shards = 0
        self.useful_grid_steps = 0

    def setup(self) -> float:
        setup_s = probe_setup(self.root, self.work, NAME)
        prepare()
        return setup_s

    def measure(self, seconds: float, tally: Tally, rec: Any = None) -> None:
        from repro.obs.prof import SpanProfiler, aggregate_spans, span_from_dict, use_profiler

        self.passes += 1
        self.campaigns = self.span_shards = self.useful_grid_steps = 0
        sums = np.zeros(len(CAMPAIGNS))
        squares = np.zeros(len(CAMPAIGNS))
        counts = np.zeros(len(CAMPAIGNS))
        start = time.perf_counter()
        while True:
            for i, campaign in enumerate(CAMPAIGNS):
                ckpt = self.work / f"ckpt-{self.passes}-{tally.rounds}-{i}"
                seed = (self.seed, tally.rounds, i)
                began = time.perf_counter()
                try:
                    if rec is None:
                        result = _sample(campaign, TRIALS, seed, workers=WORKERS,
                                         checkpoint_dir=ckpt)
                    else:
                        # The traced run asks the program for its own span
                        # tree too, to cross-check the worker-side counts.
                        with use_profiler(SpanProfiler()):
                            result = _sample(campaign, TRIALS, seed, workers=WORKERS,
                                             checkpoint_dir=ckpt)
                except Exception as exc:
                    tally.fail(f"{campaign.label}: {exc!r}")
                    continue
                tally.latencies.append(time.perf_counter() - began)
                values = result.values
                self.campaigns += 1
                tally.trials += int(values.size)
                tally.cell_steps += float(values.size) * campaign.steps * SIDE * SIDE
                self.useful_grid_steps += int(values.size) * campaign.steps
                sums[i] += float(values.sum())
                squares[i] += float(np.square(values).sum())
                counts[i] += values.size
                tally.check(
                    result.complete
                    and int(values.size) == TRIALS
                    and result.meta.get("num_shards") == TRIALS // SHARD_SIZE,
                    f"{campaign.label}: incomplete campaign ({values.size} values)",
                )
                tree = result.meta.get("span_tree")
                if tree is not None:
                    totals = aggregate_spans([span_from_dict(tree)])
                    self.span_shards += int(totals.get("shard", {}).get("count", 0))
            tally.close_round(time.perf_counter() - start)
            if tally.elapsed >= seconds:
                break
        self._check_moments(tally, sums, squares, counts)

    def _check_moments(
        self, tally: Tally, sums: np.ndarray, squares: np.ndarray, counts: np.ndarray
    ) -> None:
        """Each moment's mean, pooled over the pass, against the theory."""
        for i, campaign in enumerate(CAMPAIGNS):
            n = counts[i]
            if n < 2:
                continue
            mean = sums[i] / n
            var = max(0.0, (squares[i] - n * mean * mean) / (n - 1))
            sem = math.sqrt(var / n)
            exact = campaign.expected(SIDE)
            if campaign.lower_bound_only:
                ok = mean + SEM_TOLERANCE * sem >= exact
            else:
                ok = abs(mean - exact) <= SEM_TOLERANCE * (sem + 1e-12)
            tally.check(
                ok,
                f"{campaign.label}: mean {mean:.4f} vs exact {exact:.4f} (sem {sem:.4f})",
                measured=False,
            )

    def verify(self, tally: Tally) -> None:
        pinned.check(NAME, pin_entries(self.work / f"pin-{self.passes}"), tally)

    def layer_metrics(self, rec: Any, tally: Tally) -> dict[str, float]:
        # Only invariants of any correct program are checked here; exact
        # work counts are compared run to run, not to today's loop.
        shards = self.campaigns * (TRIALS // SHARD_SIZE)
        executed = rec.get("backends.step.grid_steps")
        for ok, message in (
            (rec.get("backends.detect.calls") == 0,
             f"backends.detect.calls {rec.get('backends.detect.calls')} != 0"),
            (executed >= self.useful_grid_steps,
             f"executed grid-steps {executed} < useful {self.useful_grid_steps}"),
            (rec.get("campaign.shard.calls") == shards,
             f"campaign.shards {rec.get('campaign.shard.calls')} != {shards}"),
            (self.span_shards == shards, f"span-tree shards {self.span_shards} != {shards}"),
            (rec.get("campaign.checkpoint.calls") >= self.campaigns,
             f"campaign.checkpoint.appends {rec.get('campaign.checkpoint.calls')} "
             f"< {self.campaigns} campaigns"),
        ):
            tally.check(ok, message, measured=False)
        return {"backends.useful_ratio": self.useful_grid_steps / executed if executed else 0.0}

    def close(self) -> None:
        pass
