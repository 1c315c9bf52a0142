"""``sort-paper``: the paper's sort-to-completion experiments at full scale.

Why this workload: the paper's result is that all five 2-D bubble sorts
need Theta(N) steps on average, so a full-scale reproduction (E-T2, E-T4,
E-T7, E-T10, E-T12) runs 600-2 000 compare-exchange steps over a batch of
1 024-cell grids.  Backend step kernels and completion detection take
over 95 % of the time.  It is the workload that exercises the hot loop
(narrow dtypes, batch compaction, cycle-granular detection).

One round: in-process ``sample(kind="sort_steps")`` for each of the five
paper algorithms at side 32 with 256 random permutations in one batch,
plus ``snake_1`` at side 64 with 64 permutations.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from pb import pinned
from pb.common import Tally, probe_setup

NAME = "sort-paper"
#: The metric the tracing overhead is computed on.
PRIMARY = "cell_steps_per_s"

CONFIGS = (
    ("row_major_row_first", 32, 256),
    ("row_major_col_first", 32, 256),
    ("snake_1", 32, 256),
    ("snake_2", 32, 256),
    ("snake_3", 32, 256),
    ("snake_1", 64, 64),
)

#: The pinned-digest probe: every configuration at its real side with a
#: smaller batch and a fixed seed (``pinned.json`` holds the digests).
PIN_SEED = 1993
PIN_TRIALS = {32: 32, 64: 8}


def prepare() -> None:
    """What set-up costs a user: import the sampler, compile the schedules."""
    from repro.backends import compiled_schedule
    from repro.schedules import build_schedule

    import repro.experiments  # noqa: F401  (the sampler's import cost)

    for algorithm, side, _ in CONFIGS:
        compiled_schedule(build_schedule(algorithm, side), side)


def pin_entries() -> dict[str, str]:
    """``{key: values_digest}`` of the fixed-seed probe (see :mod:`pb.pin`)."""
    from repro.experiments import sample

    return {
        f"{algorithm}@{side}": sample(
            algorithm, side=side, trials=PIN_TRIALS[side], seed=PIN_SEED
        ).values_digest
        for algorithm, side, _ in CONFIGS
    }


class Workload:
    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.root = root
        #: Slowest grid's t_f of every measured sample() call.
        self.max_steps: list[int] = []
        self.useful_grid_steps = 0

    def setup(self) -> float:
        setup_s = probe_setup(self.root, self.work, NAME)
        prepare()  # warm this process's compile cache before measuring
        return setup_s

    def measure(self, seconds: float, tally: Tally, rec: Any = None) -> None:
        from repro.backends import step_cap
        from repro.experiments import sample

        self.max_steps.clear()
        self.useful_grid_steps = 0
        start = time.perf_counter()
        while True:
            for i, (algorithm, side, trials) in enumerate(CONFIGS):
                began = time.perf_counter()
                try:
                    result = sample(
                        algorithm, side=side, trials=trials,
                        seed=(self.seed, tally.rounds, i),
                    )
                except Exception as exc:  # a failed run is an error, not a crash
                    tally.fail(f"{algorithm}@{side}: {exc!r}")
                    continue
                tally.latencies.append(time.perf_counter() - began)
                values = result.values
                cells = side * side
                tally.trials += int(values.size)
                tally.cell_steps += float(values.sum()) * cells
                self.useful_grid_steps += int(values.sum())
                self.max_steps.append(int(values.max()))
                tally.check(
                    int(values.size) == trials
                    and int(values.min()) >= 1
                    and int(values.max()) <= step_cap(side),
                    f"{algorithm}@{side}: {values.size} values outside [1, cap]",
                )
            tally.close_round(time.perf_counter() - start)
            if tally.elapsed >= seconds:
                return

    def verify(self, tally: Tally) -> None:
        pinned.check(NAME, pin_entries(), tally)

    def layer_metrics(self, rec: Any, tally: Tally) -> dict[str, float]:
        # Only invariants of any correct program are checked here; exact
        # work counts are compared run to run, not to today's loop.
        executed = rec.get("backends.step.grid_steps")
        tally.check(
            rec.get("backends.step.calls") >= sum(self.max_steps),
            f"step calls {rec.get('backends.step.calls')} < the slowest grids' "
            f"steps {sum(self.max_steps)}",
            measured=False,
        )
        tally.check(
            executed >= self.useful_grid_steps,
            f"executed grid-steps {executed} < useful {self.useful_grid_steps}",
            measured=False,
        )
        return {"backends.useful_ratio": self.useful_grid_steps / executed if executed else 0.0}

    def close(self) -> None:
        pass
