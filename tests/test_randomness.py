"""Permutation draws: the narrow dtype helper and the no-wrap guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.randomness import (
    permutation_dtype,
    random_permutation_grid,
    random_permutation_mesh,
)


class TestPermutationDtype:
    @pytest.mark.parametrize(
        ("n_cells", "expected"),
        [
            (1, np.int8),
            (128, np.int8),  # values 0..127: the last int8 cell count
            (129, np.int16),
            (181 * 181, np.int16),  # side 181: 32 761 cells
            (182 * 182, np.int32),  # side 182: 33 124 cells
            (2**15, np.int16),
            (2**15 + 1, np.int32),
            (2**31, np.int32),
            (2**31 + 1, np.int64),
        ],
    )
    def test_boundaries(self, n_cells, expected):
        assert permutation_dtype(n_cells) == np.dtype(expected)

    def test_holds_every_value(self):
        for n_cells in (2, 127, 128, 129, 1024, 32761, 33124):
            dtype = permutation_dtype(n_cells)
            assert np.iinfo(dtype).max >= n_cells - 1
            assert np.dtype(dtype).kind == "i"

    def test_rejects_empty_mesh(self):
        with pytest.raises(DimensionError):
            permutation_dtype(0)

    @pytest.mark.parametrize("side", [4, 11, 12, 32])
    def test_same_values_as_int64_draws(self, side):
        narrow = random_permutation_grid(
            side, batch=5, rng=3, dtype=permutation_dtype(side * side)
        )
        wide = random_permutation_grid(side, batch=5, rng=3)
        assert narrow.dtype == permutation_dtype(side * side)
        np.testing.assert_array_equal(narrow.astype(np.int64), wide)
        single = random_permutation_grid(side, rng=3, dtype=permutation_dtype(side * side))
        np.testing.assert_array_equal(single, random_permutation_grid(side, rng=3))


class TestNoWrap:
    """A dtype too narrow for ``rows*cols - 1`` raises instead of wrapping."""

    @pytest.mark.parametrize("batch", [None, 3, (2, 2)])
    def test_int8_on_side_16_raises(self, batch):
        with pytest.raises(DimensionError, match="int8"):
            random_permutation_grid(16, batch=batch, rng=0, dtype=np.int8)
        with pytest.raises(DimensionError, match="int8"):
            random_permutation_mesh((16, 16), batch=batch, rng=0, dtype=np.int8)

    @pytest.mark.parametrize("batch", [None, 3])
    def test_boundary_meshes(self, batch):
        ok = random_permutation_mesh((8, 16), batch=batch, rng=0, dtype=np.int8)
        assert ok.max() == 127
        with pytest.raises(DimensionError):
            random_permutation_mesh((1, 129), batch=batch, rng=0, dtype=np.int8)
        assert random_permutation_grid(181, rng=0, dtype=np.int16).max() == 181 * 181 - 1
        with pytest.raises(DimensionError):
            random_permutation_grid(182, batch=batch, rng=0, dtype=np.int16)
        assert random_permutation_mesh((1, 129), batch=batch, rng=0, dtype=np.uint8).max() == 128

    def test_float_dtypes_are_left_alone(self):
        grid = random_permutation_grid(4, rng=0, dtype=np.float64)
        assert grid.dtype == np.float64
        assert sorted(grid.ravel()) == list(range(16))
