"""Tests tying the row-major algorithms to the embedded 1-D bubble sort."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import get_algorithm
from repro.core.embedding import (
    as_embedded_array,
    embedded_index,
    embedded_pairs_even_step,
    embedded_pairs_odd_step,
    from_embedded_array,
)
from repro.backends import run_steps
from repro.core.schedule import comparator_pairs
from repro.errors import DimensionError
from repro.linear.odd_even import transposition_step
from repro.randomness import random_permutation_grid


class TestRoundTrip:
    def test_index(self):
        assert embedded_index(1, 2, 4) == 6

    def test_index_out_of_range(self):
        with pytest.raises(DimensionError):
            embedded_index(4, 0, 4)

    def test_as_from_roundtrip(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        np.testing.assert_array_equal(
            from_embedded_array(as_embedded_array(grid), 6), grid
        )

    def test_from_wrong_length(self):
        with pytest.raises(DimensionError):
            from_embedded_array(np.arange(10), 4)


class TestEmbeddedPairSets:
    @pytest.mark.parametrize("side", [4, 6, 8])
    def test_odd_step_pairs_equal_row_odd_comparators(self, side):
        schedule = get_algorithm("row_major_row_first")
        row_odd = schedule.steps[0].ops[0]
        mesh_pairs = {frozenset(p) for p in comparator_pairs(row_odd, side)}
        embedded = {frozenset(p) for p in embedded_pairs_odd_step(side)}
        assert mesh_pairs == embedded

    @pytest.mark.parametrize("side", [4, 6, 8])
    def test_even_step_pairs_equal_row_even_plus_wrap(self, side):
        schedule = get_algorithm("row_major_row_first")
        step3 = schedule.steps[2]
        mesh_pairs = {
            frozenset(p) for op in step3.ops for p in comparator_pairs(op, side)
        }
        embedded = {frozenset(p) for p in embedded_pairs_even_step(side)}
        assert mesh_pairs == embedded

    def test_odd_side_rejected(self):
        with pytest.raises(DimensionError):
            embedded_pairs_odd_step(5)


class TestStepEquivalence:
    """Applying mesh step k equals applying the 1-D step to the embedding."""

    @pytest.mark.parametrize("side", [4, 6])
    def test_row_odd_step_is_linear_odd_step(self, side, rng):
        grid = random_permutation_grid(side, rng=rng)
        mesh_after = run_steps("vectorized", get_algorithm("row_major_row_first"), grid, 1)
        linear = as_embedded_array(grid)
        transposition_step(linear, 1)  # 1-D odd step
        np.testing.assert_array_equal(as_embedded_array(mesh_after), linear)

    @pytest.mark.parametrize("side", [4, 6])
    def test_row_even_plus_wrap_is_linear_even_step(self, side, rng):
        grid = random_permutation_grid(side, rng=rng)
        # isolate step 3 by starting the schedule there
        from repro.backends import CompiledSchedule

        compiled = CompiledSchedule(get_algorithm("row_major_row_first"), side)
        work = grid.copy()
        compiled.apply_step(work, 3)
        linear = as_embedded_array(grid)
        transposition_step(linear, 2)  # 1-D even step
        np.testing.assert_array_equal(as_embedded_array(work), linear)

    def test_column_steps_move_toward_target(self, rng):
        """A column comparator moves the smaller value up = earlier in the
        embedded order; it can only decrease the number of inversions."""
        side = 6
        grid = random_permutation_grid(side, rng=rng)

        def inversions(a):
            a = as_embedded_array(a)
            return int(np.sum(a[:, None] > a[None, :])) if False else sum(
                int(x > y) for i, x in enumerate(a) for y in a[i + 1 :]
            )

        from repro.backends import CompiledSchedule

        compiled = CompiledSchedule(get_algorithm("row_major_row_first"), side)
        work = grid.copy()
        before = inversions(work)
        compiled.apply_step(work, 2)  # column odd step
        assert inversions(work) <= before
