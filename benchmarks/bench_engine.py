"""E-ENGINE: executor micro-benchmarks and the DESIGN.md ablations.

These are true microkernel benchmarks (pytest-benchmark repeats them):

* per-algorithm step throughput of the vectorized engine;
* ablation: batched execution vs per-trial loops;
* ablation: vectorized engine vs the pure-Python reference machine;
* ablation: completion-check cadence (every step vs every cycle).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import CompiledSchedule, run_sort
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.reference import ReferenceMachine
from repro.randomness import random_permutation_grid

SIDE = 32
STEPS = 64


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def bench_step_throughput(benchmark, name):
    """Steps/second for a single side-32 grid."""
    compiled = CompiledSchedule(get_algorithm(name), SIDE)
    grid = random_permutation_grid(SIDE, rng=0)

    def run():
        work = grid.copy()
        compiled.run(work, STEPS)
        return work

    benchmark(run)


def bench_ablation_batched_execution(benchmark):
    """64 grids advanced together — compare per-op cost against
    ``bench_ablation_per_trial_loop``."""
    compiled = CompiledSchedule(get_algorithm("snake_1"), SIDE)
    grids = random_permutation_grid(SIDE, batch=64, rng=0)

    def run():
        work = grids.copy()
        compiled.run(work, STEPS)
        return work

    benchmark(run)


def bench_ablation_per_trial_loop(benchmark):
    """The same 64 grids advanced one at a time (the naive design)."""
    compiled = CompiledSchedule(get_algorithm("snake_1"), SIDE)
    grids = random_permutation_grid(SIDE, batch=64, rng=0)

    def run():
        out = []
        for i in range(grids.shape[0]):
            work = grids[i].copy()
            compiled.run(work, STEPS)
            out.append(work)
        return out

    benchmark(run)


def bench_ablation_reference_engine(benchmark):
    """Pure-Python oracle on a small grid (side 8) — the cost that
    justifies the vectorized engine."""
    grid = random_permutation_grid(8, rng=0)

    def run():
        machine = ReferenceMachine(get_algorithm("snake_1"), grid)
        machine.run(STEPS)
        return machine.grid

    benchmark(run)


def bench_ablation_numpy_engine_same_size(benchmark):
    """Vectorized engine on the identical side-8 workload."""
    compiled = CompiledSchedule(get_algorithm("snake_1"), 8)
    grid = random_permutation_grid(8, rng=0)

    def run():
        work = grid.copy()
        compiled.run(work, STEPS)
        return work

    benchmark(run)


def bench_ablation_check_every_step(benchmark):
    """run_sort with the step-exact completion check (the default,
    needed for the paper's step-exact t_f)."""
    grid = random_permutation_grid(16, batch=16, rng=1)

    def run():
        return run_sort("vectorized", get_algorithm("snake_1"), grid)

    benchmark(run)


def bench_ablation_check_every_cycle(benchmark):
    """Manual variant checking sortedness only once per 4-step cycle —
    cheaper per step but only cycle-granular t_f."""
    from repro.core.orders import target_grid

    grids = random_permutation_grid(16, batch=16, rng=1)
    compiled = CompiledSchedule(get_algorithm("snake_1"), 16)
    target = target_grid(grids, 16, "snake")

    def run():
        work = grids.copy()
        t = 0
        done = np.zeros(grids.shape[0], dtype=bool)
        while t < 4096 and not done.all():
            for _ in range(4):
                t += 1
                compiled.apply_step(work, t)
            done = np.all(work == target, axis=(-2, -1))
        return t

    benchmark(run)


def bench_rect_engine(benchmark):
    """Rectangular executor on a 16x64 mesh (same N as 32x32)."""
    rows, cols = 16, 64
    compiled = CompiledSchedule(get_algorithm("snake_1"), rows, cols)
    rng = np.random.default_rng(0)
    grid = rng.permutation(rows * cols).reshape(rows, cols)

    def run():
        work = grid.copy()
        for t in range(1, STEPS + 1):
            compiled.apply_step(work, t)
        return work

    benchmark(run)


def bench_fault_engine_overhead(benchmark):
    """Fault injector at p=0.1 on the side-32 workload (vs bench_step_throughput)."""
    from repro.core.faults import FaultyCompiledSchedule

    compiled = FaultyCompiledSchedule(
        get_algorithm("snake_1"), SIDE, failure_rate=0.1, rng=0
    )
    grid = random_permutation_grid(SIDE, rng=0)

    def run():
        work = grid.copy()
        for t in range(1, STEPS + 1):
            compiled.apply_step(work, t)
        return work

    benchmark(run)
