"""Tests for rectangular meshes: target orders and the rect backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import CompiledSchedule, run_sort, step_cap
from repro.core.algorithms import ALGORITHM_NAMES, SNAKE_NAMES, get_algorithm
from repro.errors import DimensionError, StepLimitExceeded, UnsupportedMeshError
from repro.randomness import random_permutation_grid
from repro.rect import rect_is_sorted, rect_rank_grid, rect_target_grid, validate_rect


def _perm(rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(rows * cols).reshape(rows, cols)


class TestRectOrders:
    def test_rank_grid_snake(self):
        grid = rect_rank_grid(2, 3, "snake")
        np.testing.assert_array_equal(grid, [[0, 1, 2], [5, 4, 3]])

    def test_rank_grid_row_major(self):
        grid = rect_rank_grid(3, 2, "row_major")
        np.testing.assert_array_equal(grid, [[0, 1], [2, 3], [4, 5]])

    def test_target_and_sorted(self):
        tgt = rect_target_grid(np.arange(12)[::-1], 3, 4, "snake")
        assert rect_is_sorted(tgt, "snake")
        assert not rect_is_sorted(tgt, "row_major")

    def test_validate_rect(self):
        assert validate_rect(np.zeros((3, 5))) == (3, 5)
        with pytest.raises(DimensionError):
            validate_rect(np.zeros(5))

    def test_unknown_order(self):
        with pytest.raises(DimensionError):
            rect_rank_grid(2, 2, "spiral")

    def test_wrong_size(self):
        with pytest.raises(DimensionError):
            rect_target_grid(np.arange(10), 3, 4, "snake")


class TestRectExecution:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (3, 8), (8, 8)])
    def test_sorts_rectangles(self, name, shape):
        rows, cols = shape
        schedule = get_algorithm(name)
        if schedule.requires_even_side and cols % 2:
            pytest.skip("row-major needs even column count")
        out = run_sort("rect", schedule, _perm(rows, cols, 1))
        assert bool(np.all(out.completed))
        assert rect_is_sorted(out.final, schedule.order)

    @pytest.mark.parametrize("name", SNAKE_NAMES)
    @pytest.mark.parametrize("shape", [(3, 5), (5, 3), (7, 4)])
    def test_snakes_on_odd_shapes(self, name, shape):
        out = run_sort("rect", get_algorithm(name), _perm(*shape, 2))
        assert bool(np.all(out.completed))

    def test_row_major_odd_cols_rejected(self):
        with pytest.raises(UnsupportedMeshError):
            CompiledSchedule(get_algorithm("row_major_row_first"), 4, 5)

    def test_row_major_odd_rows_allowed(self):
        out = run_sort("rect", get_algorithm("row_major_row_first"), _perm(5, 4, 3))
        assert bool(np.all(out.completed))

    def test_tiny_rejected(self):
        # A 1x1 mesh has nothing to compare and is still rejected; 1xN
        # linear arrays became first-class with the schedule registry's
        # linear topology and must compile and sort.
        with pytest.raises(UnsupportedMeshError):
            CompiledSchedule(get_algorithm("snake_1"), 1, 1)
        out = run_sort("rect", get_algorithm("snake_1"), _perm(1, 4, 7))
        assert bool(np.all(out.completed))

    def test_cap(self):
        out = run_sort("rect", get_algorithm("snake_3"), _perm(4, 6, 4), max_steps=1)
        assert int(out.steps) == -1
        with pytest.raises(StepLimitExceeded):
            run_sort(
                "rect", get_algorithm("snake_3"), _perm(4, 6, 4), max_steps=1, raise_on_cap=True
            )

    def test_batched(self):
        grids = np.stack([_perm(4, 6, s) for s in range(5)])
        out = run_sort("rect", get_algorithm("snake_1"), grids)
        assert out.steps.shape == (5,)
        assert bool(np.all(out.completed))

    def test_step_cap_scales(self):
        assert step_cap(4, 8) > 8 * 32


class TestSquareAgreement:
    """On squares, the rect backend must agree exactly with the vectorized one."""

    @given(
        name=st.sampled_from(ALGORITHM_NAMES),
        side=st.sampled_from([4, 6]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=20)
    def test_same_step_counts(self, name, side, seed):
        grid = random_permutation_grid(side, rng=seed)
        core = run_sort("vectorized", get_algorithm(name), grid)
        rect = run_sort("rect", get_algorithm(name), grid)
        assert core.steps_scalar() == rect.steps_scalar()
        np.testing.assert_array_equal(core.final, rect.final)
