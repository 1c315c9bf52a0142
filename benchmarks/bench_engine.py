"""E-ENGINE: executor micro-benchmarks and the DESIGN.md ablations.

These are true microkernel benchmarks (pytest-benchmark repeats them):

* per-algorithm step throughput of the vectorized engine;
* ablation: batched execution vs per-trial loops;
* ablation: vectorized engine vs the pure-Python reference machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import CompiledSchedule
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
