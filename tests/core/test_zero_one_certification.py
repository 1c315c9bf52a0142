"""Stratified 0-1 certification on 6x6 meshes.

The 4x4 mesh is certified exhaustively (65 536 inputs).  For 6x6,
exhaustive certification is out of reach (2^36 inputs), but the 0-1
principle still lets us certify *strata*: all inputs with at most two
zeroes (or at most two ones, by symmetry) exhaustively, plus a large
stratified random sample across every zero count.  Boundary strata are
where transcription bugs (off-by-one offsets, wrong edge handling) show up
first — a lone zero must travel the entire mesh.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.backends import run_sort, step_cap
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.randomness import random_zero_one_grid


def _grids_with_zero_cells(side: int, k: int) -> np.ndarray:
    """All 0-1 grids with exactly ``k`` zeroes."""
    n_cells = side * side
    positions = list(combinations(range(n_cells), k))
    grids = np.ones((len(positions), n_cells), dtype=np.int8)
    for i, pos in enumerate(positions):
        grids[i, list(pos)] = 0
    return grids.reshape(-1, side, side)


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_exhaustive_low_zero_strata_6x6(name, k):
    grids = _grids_with_zero_cells(6, k)
    out = run_sort("vectorized", get_algorithm(name), grids, max_steps=step_cap(6))
    assert out.all_completed


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
@pytest.mark.parametrize("k", [34, 35, 36])
def test_exhaustive_high_zero_strata_6x6(name, k):
    """By 0-1 symmetry these mirror the low strata; certify them directly."""
    grids = (1 - _grids_with_zero_cells(6, 36 - k)).astype(np.int8)
    out = run_sort("vectorized", get_algorithm(name), grids, max_steps=step_cap(6))
    assert out.all_completed


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_stratified_random_sample_6x6(name, rng):
    """64 random matrices at every zero count 0..36."""
    batches = []
    for k in range(0, 37, 3):
        batches.append(random_zero_one_grid(6, zeros=k, batch=64, rng=rng))
    grids = np.concatenate(batches)
    out = run_sort("vectorized", get_algorithm(name), grids, max_steps=step_cap(6))
    assert out.all_completed


@pytest.mark.parametrize("name", ["snake_1", "snake_2", "snake_3"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_exhaustive_low_zero_strata_5x5(name, k):
    """Odd-side boundary strata for the snakelike algorithms."""
    grids = _grids_with_zero_cells(5, k)
    out = run_sort("vectorized", get_algorithm(name), grids, max_steps=step_cap(5))
    assert out.all_completed
