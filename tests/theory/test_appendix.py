"""Tests for the odd-side appendix theory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_steps
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.randomness import random_zero_one_grid
from repro.theory.appendix import (
    corollary4_average_lower,
    e_Z1_0_snake1_odd,
    e_Z1_0_snake1_odd_paper,
    e_z11_odd,
    e_z11_odd_paper,
    e_z21_odd,
    theorem13_threshold,
    var_Z1_0_snake1_odd,
)
from repro.zeroone.trackers import z1_statistic

ODD_SIDES = [3, 5, 7, 9, 13]


class TestLemma14:
    @pytest.mark.parametrize("side", ODD_SIDES)
    def test_e_z11_closed_form(self, side):
        assert e_z11_odd(side) == e_z11_odd_paper(side)

    @pytest.mark.parametrize("side", ODD_SIDES)
    def test_e_Z1_0_closed_form(self, side):
        assert e_Z1_0_snake1_odd(side) == e_Z1_0_snake1_odd_paper(side)

    def test_e_z21(self):
        assert float(e_z21_odd(5)) == (25 + 1) / (2 * 25)

    @pytest.mark.parametrize("side", [5, 9])
    def test_e_Z1_0_matches_mc(self, side, rng):
        grids = random_zero_one_grid(side, batch=6000, rng=rng)
        after = run_steps("vectorized", get_algorithm("snake_1"), grids, 1)
        mc = float(np.mean(np.asarray(z1_statistic(after))))
        assert abs(mc - float(e_Z1_0_snake1_odd(side))) < 0.12

    def test_variance_positive(self):
        assert var_Z1_0_snake1_odd(7) > 0

    @pytest.mark.parametrize("side", [4, 6])
    def test_even_side_rejected(self, side):
        with pytest.raises(DimensionError):
            e_Z1_0_snake1_odd(side)


class TestTheorem13Corollary4:
    def test_threshold_value(self):
        # alpha=13, N=25: ceil(13*24/50) = 7
        assert theorem13_threshold(13, 5) == 7

    def test_corollary4_positive_and_linear(self):
        values = {side: float(corollary4_average_lower(side)) for side in (9, 15, 27)}
        assert all(v > 0 for v in values.values())
        assert values[27] > values[15] > values[9]
        # roughly N/2 for large sides
        assert abs(values[27] / (27 * 27) - 0.5) < 0.1
