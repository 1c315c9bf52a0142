"""Tests for the shearsort baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort, run_steps
from repro.core.orders import is_sorted_grid, target_grid
from repro.errors import DimensionError
from repro.randomness import random_permutation_grid
from repro.schedules import build_shearsort, shearsort_step_count


class TestShearsortCorrectness:
    @pytest.mark.parametrize("side", [2, 4, 7, 8, 16])
    def test_sorts_within_schedule_length(self, side, rng):
        grids = random_permutation_grid(side, batch=10, rng=rng)
        out = run_sort(
            "vectorized", build_shearsort(side=side), grids, max_steps=shearsort_step_count(side)
        )
        assert out.all_completed
        assert is_sorted_grid(out.final, "snake").all()

    def test_exhaustive_zero_one_4x4(self):
        grids = ((np.arange(65536)[:, None] >> np.arange(16)) & 1).astype(np.int8).reshape(-1, 4, 4)
        out = run_sort(
            "vectorized", build_shearsort(side=4), grids, max_steps=shearsort_step_count(4)
        )
        assert out.all_completed

    def test_sorted_is_fixed_point(self):
        side = 6
        tgt = target_grid(np.arange(side * side), side, "snake")
        after = run_steps(
            "vectorized", build_shearsort(side=side), tgt, shearsort_step_count(side)
        )
        np.testing.assert_array_equal(after, tgt)


class TestShearsortComplexity:
    def test_step_count_formula(self):
        # side 8: phases = log2(8)+1 = 4 -> (2*4-1)*8 = 56
        assert shearsort_step_count(8) == 56

    def test_asymptotically_beats_bubble_sorts(self, rng):
        """For side 16 the schedule is ~sqrt(N) log N = 144 steps, well under
        the ~N = 256 the bubble sorts need on average."""
        side = 16
        assert shearsort_step_count(side) < side * side

    def test_scaling_is_subquadratic(self):
        # step count grows like side*log(side), not side^2
        ratio = shearsort_step_count(32) / shearsort_step_count(8)
        assert ratio < (32 / 8) ** 2 / 2

    def test_rejects_tiny(self):
        with pytest.raises(DimensionError):
            build_shearsort(side=1)
        with pytest.raises(DimensionError):
            shearsort_step_count(1)

    def test_schedule_metadata(self):
        schedule = build_shearsort(side=8)
        assert schedule.order == "snake"
        assert not schedule.uses_wraparound
        assert schedule.metadata["family"] == "shearsort"
