"""Tests for the fault-injection executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort, step_cap
from repro.core.algorithms import get_algorithm
from repro.core.faults import FaultyCompiledSchedule, faulty_run_until_sorted
from repro.errors import DimensionError, StepLimitExceeded
from repro.randomness import random_permutation_grid
from repro.schedules import smallest_column_adversary


class TestHealthyPathEquivalence:
    @pytest.mark.parametrize("name", ["snake_1", "snake_3", "row_major_row_first"])
    def test_zero_rate_matches_engine(self, name, rng):
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        schedule = get_algorithm(name)
        healthy = run_sort("vectorized", schedule, grid)
        faulty = faulty_run_until_sorted(
            schedule, grid, max_steps=step_cap(side)
        )
        assert healthy.steps_scalar() == faulty.steps_scalar()
        np.testing.assert_array_equal(healthy.final, faulty.final)

    def test_stepwise_equivalence(self, rng):
        from repro.backends import CompiledSchedule

        side = 6
        grid = random_permutation_grid(side, rng=rng)
        schedule = get_algorithm("snake_2")
        a, b = grid.copy(), grid.copy()
        healthy = CompiledSchedule(schedule, side)
        faulty = FaultyCompiledSchedule(schedule, side)
        for t in range(1, 20):
            healthy.apply_step(a, t)
            faulty.apply_step(b, t)
            np.testing.assert_array_equal(a, b)


class TestTransientFaults:
    @pytest.mark.parametrize("rate", [0.1, 0.4])
    def test_still_sorts(self, rate, rng):
        side = 8
        grid = random_permutation_grid(side, rng=rng)
        out = faulty_run_until_sorted(
            get_algorithm("snake_1"), grid,
            max_steps=20 * side * side, failure_rate=rate, rng=rng,
            raise_on_cap=True,
        )
        assert out.all_completed

    def test_multiset_preserved_under_faults(self, rng):
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        compiled = FaultyCompiledSchedule(
            get_algorithm("snake_2"), side, failure_rate=0.5, rng=rng
        )
        work = grid.copy()
        for t in range(1, 40):
            compiled.apply_step(work, t)
        assert sorted(work.ravel().tolist()) == sorted(grid.ravel().tolist())

    def test_reproducible_with_seed(self, rng):
        side = 6
        grid = random_permutation_grid(side, rng=rng)
        kwargs = dict(max_steps=4000, failure_rate=0.3)
        a = faulty_run_until_sorted(get_algorithm("snake_1"), grid, rng=11, **kwargs)
        b = faulty_run_until_sorted(get_algorithm("snake_1"), grid, rng=11, **kwargs)
        assert a.steps_scalar() == b.steps_scalar()

    def test_invalid_rate(self):
        with pytest.raises(DimensionError):
            FaultyCompiledSchedule(get_algorithm("snake_1"), 4, failure_rate=1.0)
        with pytest.raises(DimensionError):
            FaultyCompiledSchedule(get_algorithm("snake_1"), 4, failure_rate=-0.1)


class TestPermanentFaults:
    def test_dead_wrap_wires_trap_adversary(self):
        side = 6
        dead = [((h, side - 1), (h + 1, 0)) for h in range(side - 1)]
        with pytest.raises(StepLimitExceeded):
            faulty_run_until_sorted(
                get_algorithm("row_major_row_first"),
                smallest_column_adversary(side),
                max_steps=8 * side * side,
                dead_pairs=dead,
                raise_on_cap=True,
            )

    def test_dead_pair_never_exchanges(self, rng):
        side = 4
        # kill one horizontal pair in the odd row step
        dead = [((0, 0), (0, 1))]
        compiled = FaultyCompiledSchedule(
            get_algorithm("snake_1"), side, dead_pairs=dead
        )
        grid = np.arange(16, dtype=np.int64).reshape(4, 4)[::-1, ::-1].copy()
        before = grid.copy()
        compiled.apply_step(grid, 1)
        # cells (0,0),(0,1) untouched; the other odd-row pair did exchange
        assert grid[0, 0] == before[0, 0] and grid[0, 1] == before[0, 1]
        assert grid[0, 2] == min(before[0, 2], before[0, 3])

    def test_dead_column_pair(self, rng):
        side = 4
        dead = [((0, 0), (1, 0))]
        compiled = FaultyCompiledSchedule(
            get_algorithm("snake_1"), side, dead_pairs=dead
        )
        grid = np.arange(16, dtype=np.int64).reshape(4, 4)[::-1].copy()
        before = grid.copy()
        compiled.apply_step(grid, 2)  # column odd step
        assert grid[0, 0] == before[0, 0] and grid[1, 0] == before[1, 0]
        assert grid[0, 1] == min(before[0, 1], before[1, 1])

    def test_single_dead_pair_deadlocks_locally(self, rng):
        """A single permanently dead comparator typically *deadlocks* the
        row-major sort: these schedules have no redundant path for the final
        exchange at that pair, so the run stalls with the mismatches
        confined to the dead pair's neighbourhood in the embedded linear
        order (rows 1-3 here).  This is the honest fault-tolerance story —
        transient faults are survivable, permanent ones are not."""
        from repro.core.orders import target_grid

        side = 6
        dead_row = 2
        dead = [((dead_row, 2), (dead_row, 3))]
        deadlocks = 0
        for _ in range(5):
            grid = random_permutation_grid(side, rng=rng)
            out = faulty_run_until_sorted(
                get_algorithm("row_major_row_first"), grid,
                max_steps=20 * side * side, dead_pairs=dead,
            )
            if out.all_completed:
                continue
            deadlocks += 1
            tgt = target_grid(grid, side, "row_major")
            mismatch_rows = {int(r) for r, _ in np.argwhere(out.final != tgt)}
            assert mismatch_rows <= {dead_row - 1, dead_row, dead_row + 1}
        assert deadlocks >= 3
