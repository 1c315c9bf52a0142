"""Property tests built on the 0-1 principle and comparator-network facts.

An oblivious comparison-exchange procedure sorts all inputs iff it sorts all
0-1 inputs; these tests exploit that plus monotonicity: applying any
schedule commutes with monotone maps, which hypothesis can exercise cheaply.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import run_sort, run_steps
from repro.core.algorithms import ALGORITHM_NAMES, get_algorithm
from repro.randomness import random_permutation_grid
from repro.schedules import build_shearsort

algorithms = st.sampled_from(ALGORITHM_NAMES)


def _fit_side(name: str, side: int) -> int:
    if get_algorithm(name).requires_even_side and side % 2:
        return side + 1
    return side


@given(
    name=algorithms,
    side=st.sampled_from([4, 5, 6]),
    seed=st.integers(0, 2**31),
    steps=st.integers(1, 16),
    threshold=st.integers(1, 15),
)
@settings(max_examples=40)
def test_schedules_commute_with_thresholding(name, side, seed, steps, threshold):
    """For a comparator network, thresholding before or after running the
    network yields the same 0-1 matrix (min/max commute with monotone maps).
    This single property pins every kernel's comparator semantics."""
    side = _fit_side(name, side)
    threshold = threshold % (side * side) + 1
    schedule = get_algorithm(name)
    grid = random_permutation_grid(side, rng=seed)
    after_then_threshold = (run_steps("vectorized", schedule, grid, steps) >= threshold).astype(np.int8)
    threshold_then_after = run_steps("vectorized", schedule, (grid >= threshold).astype(np.int8), steps)
    np.testing.assert_array_equal(after_then_threshold, threshold_then_after)


@given(
    name=algorithms,
    side=st.sampled_from([4, 6]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30)
def test_zero_one_time_lower_bounds_permutation_time(name, side, seed):
    """The paper's reduction: sorting A01 takes no longer than sorting A
    (every comparator acts identically or earlier-finishing on A01)."""
    schedule = get_algorithm(name)
    grid = random_permutation_grid(side, rng=seed)
    t_perm = run_sort("vectorized", schedule, grid).steps_scalar()
    zeros = side * side // 2
    a01 = (grid >= zeros).astype(np.int8)
    t_01 = run_sort("vectorized", schedule, a01).steps_scalar()
    assert t_01 <= t_perm


@given(side=st.sampled_from([4, 5, 8]), seed=st.integers(0, 2**31), steps=st.integers(1, 20))
@settings(max_examples=25)
def test_shearsort_commutes_with_thresholding(side, seed, steps):
    schedule = build_shearsort(side=side)
    grid = random_permutation_grid(side, rng=seed)
    threshold = (seed % (side * side)) + 1
    a = (run_steps("vectorized", schedule, grid, steps) >= threshold).astype(np.int8)
    b = run_steps("vectorized", schedule, (grid >= threshold).astype(np.int8), steps)
    np.testing.assert_array_equal(a, b)


@given(
    name=algorithms,
    side=st.sampled_from([4, 6]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25)
def test_relabeling_invariance(name, side, seed):
    """Step counts depend only on the relative order of the values."""
    schedule = get_algorithm(name)
    grid = random_permutation_grid(side, rng=seed)
    t1 = run_sort("vectorized", schedule, grid).steps_scalar()
    t2 = run_sort("vectorized", schedule, grid * 7 + 3).steps_scalar()
    assert t1 == t2


@given(
    name=algorithms,
    side=st.sampled_from([4, 6]),
    seed=st.integers(0, 2**31),
    steps=st.integers(1, 12),
)
@settings(max_examples=20)
def test_fault_engine_healthy_path_equals_engine(name, side, seed, steps):
    """The fault injector with no faults is the engine, on any input."""
    from repro.core.faults import FaultyCompiledSchedule

    schedule = get_algorithm(name)
    grid = random_permutation_grid(side, rng=seed)
    vec = run_steps("vectorized", schedule, grid, steps)
    work = grid.copy()
    faulty = FaultyCompiledSchedule(schedule, side)
    for t in range(1, steps + 1):
        faulty.apply_step(work, t)
    np.testing.assert_array_equal(vec, work)
