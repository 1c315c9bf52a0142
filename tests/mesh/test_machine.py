"""Tests for the processor-level mesh machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import run_sort, step_cap
from repro.backends.mesh import MeshBackend
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError, MissingWireError, StepLimitExceeded
from repro.mesh.machine import MeshMachine
from repro.mesh.topology import MeshTopology
from repro.randomness import random_permutation_grid
from repro.schedules import smallest_column_adversary


class TestConstruction:
    def test_rejects_batched_grid(self, rng):
        with pytest.raises(DimensionError):
            MeshMachine(get_algorithm("snake_1"), random_permutation_grid(4, batch=2, rng=rng))

    def test_topology_side_mismatch(self, rng):
        with pytest.raises(DimensionError):
            MeshMachine(
                get_algorithm("snake_1"),
                random_permutation_grid(4, rng=rng),
                topology=MeshTopology(6),
            )

    def test_wrap_schedule_needs_wrap_wires(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        with pytest.raises(MissingWireError):
            MeshMachine(
                get_algorithm("row_major_row_first"),
                grid,
                topology=MeshTopology(4, wraparound=False),
            )

    def test_default_topology_matches_schedule(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        machine = MeshMachine(get_algorithm("row_major_row_first"), grid)
        assert machine.topology.wraparound
        machine2 = MeshMachine(get_algorithm("snake_1"), grid)
        assert not machine2.topology.wraparound


class TestExecution:
    def test_sorts_and_matches_engine(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        for name in ("snake_1", "row_major_col_first"):
            backend = MeshBackend()
            t = run_sort(backend, get_algorithm(name), grid, max_steps=step_cap(6)).steps_scalar()
            machine = backend.last_machine
            vec = run_sort("vectorized", get_algorithm(name), grid)
            assert t == vec.steps_scalar()
            np.testing.assert_array_equal(machine.as_array(), vec.final)
            assert machine.is_sorted()

    def test_step_cap(self, rng):
        grid = random_permutation_grid(6, rng=rng)
        with pytest.raises(StepLimitExceeded):
            run_sort("mesh", get_algorithm("snake_3"), grid, max_steps=1, raise_on_cap=True)

    def test_already_sorted(self):
        grid = np.arange(16).reshape(4, 4)
        out = run_sort("mesh", get_algorithm("row_major_row_first"), grid, max_steps=10)
        assert out.steps_scalar() == 0


class TestTrafficAccounting:
    def test_comparison_counts(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        machine = MeshMachine(get_algorithm("snake_1"), grid)
        machine.step()  # step 1: odd rows 2 pairs each (2 rows) + even rows 1 pair each (2 rows)
        assert machine.stats.total_comparisons() == 2 * 2 + 1 * 2
        assert machine.stats.total_swaps() <= machine.stats.total_comparisons()

    def test_wrap_wires_carry_traffic(self):
        adversary = smallest_column_adversary(6)
        backend = MeshBackend()
        run_sort(backend, get_algorithm("row_major_row_first"), adversary, max_steps=step_cap(6))
        machine = backend.last_machine
        wrap_traffic = sum(
            count
            for (a, b), count in machine.stats.comparisons.items()
            if abs(a[1] - b[1]) > 1
        )
        assert wrap_traffic > 0

    def test_busiest_links(self, rng):
        grid = random_permutation_grid(4, rng=rng)
        backend = MeshBackend()
        run_sort(backend, get_algorithm("snake_2"), grid, max_steps=1000)
        busiest = backend.last_machine.stats.busiest_links(3)
        assert len(busiest) <= 3
        assert all(count >= 1 for _, count in busiest)
