"""Tests for the 1-D odd-even transposition sort substrate.

The sorter is the registry family ``odd_even`` run as a ``(..., 1, N)``
mesh on the rect backend; :func:`transposition_step` is its one-step spec
(``tests/schedules/test_shims.py`` pins the two against each other and
against the historical pure-NumPy loop).  The reverse bubble sort of
Definition 1 is the forward sort of the negated array.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import run_sort
from repro.errors import DimensionError
from repro.linear.odd_even import transposition_step, worst_case_input
from repro.schedules import build_odd_even


def sort_line(array: np.ndarray):
    """Sort ``(..., N)`` arrays with the registry's odd_even family."""
    arr = np.asarray(array)
    return run_sort("rect", build_odd_even(), arr[..., None, :])


class TestTranspositionStep:
    def test_odd_step_pairs(self):
        arr = np.array([2, 1, 4, 3, 6, 5])
        transposition_step(arr, 1)
        np.testing.assert_array_equal(arr, [1, 2, 3, 4, 5, 6])

    def test_even_step_pairs(self):
        arr = np.array([1, 3, 2, 5, 4, 6])
        transposition_step(arr, 2)
        np.testing.assert_array_equal(arr, [1, 2, 3, 4, 5, 6])

    def test_reverse_direction(self):
        arr = np.array([1, 2, 3, 4])
        transposition_step(arr, 1, direction=-1)
        np.testing.assert_array_equal(arr, [2, 1, 4, 3])

    def test_batched(self):
        arr = np.array([[2, 1], [1, 2]])
        transposition_step(arr, 1)
        np.testing.assert_array_equal(arr, [[1, 2], [1, 2]])

    def test_zero_time_rejected(self):
        with pytest.raises(DimensionError):
            transposition_step(np.array([1, 2]), 0)

    def test_bad_direction(self):
        with pytest.raises(DimensionError):
            transposition_step(np.array([1, 2]), 1, direction=2)


class TestSortLinear:
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=60))
    def test_sorts_any_list(self, values):
        arr = np.array(values)
        out = sort_line(arr)
        np.testing.assert_array_equal(out.final.reshape(-1), np.sort(arr))
        assert out.steps_scalar() <= len(values)

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=60))
    def test_reverse_sorts_descending(self, values):
        arr = np.array(values)
        out = sort_line(-arr)
        np.testing.assert_array_equal(-out.final.reshape(-1), np.sort(arr)[::-1])
        assert out.steps_scalar() <= len(values)

    def test_already_sorted_zero_steps(self):
        out = sort_line(np.arange(10))
        assert out.steps_scalar() == 0

    def test_batched_matches_individual(self, rng):
        batch = np.stack([rng.permutation(12) for _ in range(6)])
        out = sort_line(batch)
        for i in range(6):
            assert int(out.steps[i]) == sort_line(batch[i]).steps_scalar()

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            sort_line(np.array([]))

    def test_duplicates(self):
        out = sort_line(np.array([2, 2, 1, 1, 0, 0]))
        np.testing.assert_array_equal(out.final.reshape(-1), [0, 0, 1, 1, 2, 2])


class TestWorstCase:
    @pytest.mark.parametrize("n", [2, 5, 16, 33])
    def test_worst_case_needs_n_minus_one(self, n):
        steps = sort_line(worst_case_input(n)).steps_scalar()
        assert steps >= n - 1
        assert steps <= n

    def test_average_below_worst(self, rng):
        n = 64
        avg = np.mean([sort_line(rng.permutation(n)).steps_scalar() for _ in range(30)])
        assert (n - 1) / 2 <= avg <= n

    def test_invalid_n(self):
        with pytest.raises(DimensionError):
            worst_case_input(0)
