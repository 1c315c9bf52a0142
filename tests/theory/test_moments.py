"""Tests for the exact moments vs the paper's printed closed forms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.backends import run_steps
from repro.core.algorithms import get_algorithm
from repro.randomness import random_zero_one_grid
from repro.theory import moments
from repro.zeroone.trackers import y1_statistic, z1_statistic
from repro.zeroone.weights import first_column_zeros

NS = [2, 3, 4, 6, 10]


class TestRowFirstClosedForms:
    @pytest.mark.parametrize("n", NS)
    def test_lemma4_e_z1(self, n):
        assert moments.e_z1_row_first(n) == moments.e_z1_row_first_paper(n)

    @pytest.mark.parametrize("n", NS)
    def test_theorem3_e_z1z2(self, n):
        assert moments.e_z1z2_row_first(n) == moments.e_z1z2_row_first_paper(n)

    @pytest.mark.parametrize("n", NS)
    def test_lemma4_e_M_bound(self, n):
        # E[M] >= E[Z1] - n - 1 = the printed bound
        assert moments.e_Z1_row_first(n) - n - 1 == moments.e_M_lower_row_first_paper(n)

    @pytest.mark.parametrize("n", NS)
    def test_var_positive_and_asymptote(self, n):
        var = moments.var_Z1_row_first(n)
        assert 0 < var < Fraction(3 * n, 8)

    def test_var_approaches_3n_over_8(self):
        n = 200
        assert float(moments.var_Z1_row_first(n)) / (3 * n / 8) > 0.99


class TestColFirstClosedForms:
    @pytest.mark.parametrize("n", NS)
    def test_e_z1(self, n):
        assert moments.e_z1_col_first(n) == moments.e_z1_col_first_paper(n)

    @pytest.mark.parametrize("n", NS)
    def test_e_z1sq(self, n):
        assert moments.e_z1sq_col_first(n) == moments.e_z1sq_col_first_paper(n)

    @pytest.mark.parametrize("n", NS)
    def test_theorem4_e_M_bound(self, n):
        assert moments.e_Z1_col_first(n) - n - 1 == moments.e_M_lower_col_first_paper(n)

    def test_block_distribution_sums_to_one(self):
        dist = moments.prob_zh_col_first(4)
        assert sum(dist.values()) == 1

    @pytest.mark.parametrize("n", NS)
    def test_e_z1z2_paper_form_close_but_garbled(self, n):
        """The printed rational function contains OCR-garbled coefficients;
        it converges to the same 121/64 limit but differs at small n."""
        exact = moments.e_z1z2_col_first(n)
        paper = moments.e_z1z2_col_first_paper(n)
        assert abs(float(exact) - float(paper)) < 0.05
        assert abs(float(exact) - 121 / 64) < 0.5 / n

    def test_var_asymptote_23_over_64(self):
        n = 60
        assert abs(float(moments.var_Z1_col_first(n)) / n - 23 / 64) < 0.02

    def test_zh_value_cases(self):
        assert moments.zh_value_col_first((0, 0, 0, 0)) == 2
        assert moments.zh_value_col_first((0, 0, 0, 1)) == 2
        assert moments.zh_value_col_first((0, 1, 0, 1)) == 2  # stacked zeros
        assert moments.zh_value_col_first((1, 0, 1, 0)) == 2
        assert moments.zh_value_col_first((0, 0, 1, 1)) == 1
        assert moments.zh_value_col_first((0, 1, 1, 1)) == 1
        assert moments.zh_value_col_first((1, 1, 1, 1)) == 0

    def test_zh_value_rejects_bad_pattern(self):
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            moments.zh_value_col_first((0, 2, 0, 1))

    def test_zh_value_matches_simulation(self):
        """The canonical-block map equals actually running col+row sort."""
        from itertools import product

        schedule = get_algorithm("row_major_col_first")
        for pattern in product((0, 1), repeat=4):
            grid = np.ones((4, 4), dtype=np.int8)
            grid[0, 0], grid[0, 1], grid[1, 0], grid[1, 1] = pattern
            after = run_steps("vectorized", schedule, grid, 2)
            simulated = int((after[0:2, 0] == 0).sum())
            assert simulated == moments.zh_value_col_first(pattern), pattern


class TestSnakeMoments:
    @pytest.mark.parametrize("side", [4, 6, 8, 12, 20])
    def test_lemma9(self, side):
        assert moments.e_Z1_0_snake1(side) == moments.e_Z1_0_snake1_paper(side)

    @pytest.mark.parametrize("side", [4, 6, 8, 12, 20])
    def test_lemma11(self, side):
        assert moments.e_Y1_0_snake2(side) == moments.e_Y1_0_snake2_paper(side)

    @pytest.mark.parametrize("side", [4, 6, 8])
    def test_block_decomposition_covers_definition(self, side):
        """Block sizes must cover exactly the cells Definition 4 counts."""
        blocks = moments.snake1_z1_blocks(side)
        half = side // 2
        counted_cells = side * half + half  # odd cols + even rows of last col
        assert sum(blocks) <= side * side
        # number of indicators = number of counted cells
        assert len(blocks) == counted_cells

    @pytest.mark.parametrize("side", [5, 7, 9])
    def test_block_count_odd_side(self, side):
        blocks = moments.snake1_z1_blocks(side)
        n = side // 2
        counted_cells = side * n + n  # cols 1,3,..,2n-1 plus even rows of last col
        assert len(blocks) == counted_cells

    def test_var_snake1_contradicts_paper_but_matches_mc(self, rng):
        """Ground-truth check of the Theorem 8 variance discrepancy."""
        side = 12
        exact = float(moments.var_Z1_0_snake1(side))
        paper = float(moments.var_Z1_0_snake1_paper(side // 2))
        grids = random_zero_one_grid(side, batch=4000, rng=rng)
        after = run_steps("vectorized", get_algorithm("snake_1"), grids, 1)
        mc = float(np.var(np.asarray(z1_statistic(after)), ddof=1))
        assert abs(mc - exact) < 0.15 * exact
        assert paper > 5 * exact  # the printed constant is far off

    def test_var_snake2_positive(self):
        assert moments.var_Y1_0_snake2(8) > 0

    def test_e_y1_mc(self, rng):
        side = 8
        grids = random_zero_one_grid(side, batch=4000, rng=rng)
        after = run_steps("vectorized", get_algorithm("snake_2"), grids, 1)
        mc = float(np.mean(np.asarray(y1_statistic(after))))
        assert abs(mc - float(moments.e_Y1_0_snake2(side))) < 0.15


class TestMomentMonteCarlo:
    """First moments vs simulation (the real pin between theory and code)."""

    @pytest.mark.parametrize("n", [2, 4])
    def test_e_Z1_row_first_mc(self, n, rng):
        side = 2 * n
        grids = random_zero_one_grid(side, batch=6000, rng=rng)
        after = run_steps("vectorized", get_algorithm("row_major_row_first"), grids, 1)
        mc = float(np.mean(np.asarray(first_column_zeros(after))))
        assert abs(mc - float(moments.e_Z1_row_first(n))) < 0.08

    @pytest.mark.parametrize("n", [2, 4])
    def test_e_Z1_col_first_mc(self, n, rng):
        side = 2 * n
        grids = random_zero_one_grid(side, batch=6000, rng=rng)
        after = run_steps("vectorized", get_algorithm("row_major_col_first"), grids, 2)
        mc = float(np.mean(np.asarray(first_column_zeros(after))))
        assert abs(mc - float(moments.e_Z1_col_first(n))) < 0.08

    @pytest.mark.parametrize("side", [4, 8])
    def test_e_Z1_0_snake1_mc(self, side, rng):
        grids = random_zero_one_grid(side, batch=6000, rng=rng)
        after = run_steps("vectorized", get_algorithm("snake_1"), grids, 1)
        mc = float(np.mean(np.asarray(z1_statistic(after))))
        assert abs(mc - float(moments.e_Z1_0_snake1(side))) < 0.12
