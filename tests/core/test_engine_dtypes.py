"""Engine robustness across dtypes and value ranges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.core.orders import is_sorted_grid
from repro.randomness import random_permutation_grid


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.float64])
def test_dtypes_sort(dtype, rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng).astype(dtype)
    out = run_sort("vectorized", get_algorithm("snake_1"), grid)
    assert out.all_completed
    assert out.final.dtype == dtype


def test_float_values_with_fractions(rng):
    side = 6
    grid = rng.standard_normal((side, side))
    out = run_sort("vectorized", get_algorithm("snake_2"), grid)
    assert out.all_completed
    assert is_sorted_grid(out.final, "snake")


def test_negative_values(rng):
    side = 6
    grid = random_permutation_grid(side, rng=rng) - 18
    out = run_sort("vectorized", get_algorithm("row_major_row_first"), grid)
    assert out.all_completed


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_heavy_duplicates(name, rng):
    """Only three distinct values: completion must still be exact."""
    side = 6
    grid = rng.integers(0, 3, size=(side, side))
    out = run_sort("vectorized", get_algorithm(name), grid)
    assert out.all_completed
    assert is_sorted_grid(out.final, get_algorithm(name).order)


def test_all_equal_is_instant():
    grid = np.full((6, 6), 7)
    out = run_sort("vectorized", get_algorithm("snake_3"), grid)
    assert out.steps_scalar() == 0


def test_large_values(rng):
    side = 4
    grid = (random_permutation_grid(side, rng=rng).astype(np.int64) + 2**60)
    out = run_sort("vectorized", get_algorithm("snake_1"), grid)
    assert out.all_completed


def test_side_two_meshes(rng):
    for name in ALGORITHM_NAMES:
        grid = random_permutation_grid(2, rng=rng)
        out = run_sort("vectorized", get_algorithm(name), grid)
        assert out.all_completed, name
