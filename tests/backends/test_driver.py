"""The shared driver: outcomes, event stream, caps, aliases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    SortOutcome,
    available_backends,
    iter_run,
    run_sort,
    run_steps,
    step_cap,
)
from repro.core.algorithms import get_algorithm
from repro.errors import DimensionError
from repro.randomness import random_permutation_grid


def test_step_cap_matches_historical_square_cap():
    for side in (4, 6, 8, 16, 32):
        assert step_cap(side) == 8 * side * side + 16 * side + 64
        assert step_cap(side, side) == step_cap(side)


def test_step_cap_rectangular():
    assert step_cap(4, 8) == 8 * 32 + 8 * 12 + 64
    assert step_cap(8, 4) == step_cap(4, 8)


def test_outcome_infers_shape_from_final():
    final = np.arange(12).reshape(3, 4)
    outcome = SortOutcome(
        steps=np.asarray(5), completed=np.asarray(True), final=final, max_steps=99
    )
    assert (outcome.rows, outcome.cols) == (3, 4)
    with pytest.raises(DimensionError):
        _ = outcome.side


def test_outcome_side_on_square():
    final = np.arange(16).reshape(4, 4)
    outcome = SortOutcome(
        steps=np.asarray(3), completed=np.asarray(True), final=final, max_steps=99
    )
    assert outcome.side == 4


def test_steps_scalar_raises_on_batch(rng):
    grids = random_permutation_grid(4, batch=2, rng=rng)
    outcome = run_sort("vectorized", get_algorithm("snake_1"), grids)
    with pytest.raises(DimensionError):
        outcome.steps_scalar()


@pytest.mark.parametrize("backend", available_backends())
def test_run_start_carries_mesh_shape(backend, rng):
    from repro.backends import get_backend
    from repro.obs.events import RecordingObserver

    rec = RecordingObserver()
    grid = random_permutation_grid(6, rng=rng)
    run_sort(backend, get_algorithm("snake_1"), grid, observer=rec)
    assert len(rec.run_starts) == 1
    start = rec.run_starts[0]
    assert (start.rows, start.cols) == (6, 6)
    assert start.side == 6  # historical field stays populated
    assert len(rec.run_ends) == 1
    end = rec.run_ends[0]
    if get_backend(backend).supports_batch:
        assert bool(end.completed) is True  # 0-d array, as the engine always did
    else:
        assert end.completed is True  # single-grid backends scalarize
    assert int(end.steps) == rec.steps[-1].t


def test_run_sort_defaults_cap_from_mesh_shape(rng):
    grid = random_permutation_grid(6, rng=rng)
    outcome = run_sort("vectorized", get_algorithm("snake_1"), grid)
    assert outcome.max_steps == step_cap(6)


def test_engine_shims_delegate_to_driver(rng):
    """Fixed-step and sort-to-completion runs share one driver: stepping
    exactly t_f steps reproduces the sorted outcome."""
    grid = random_permutation_grid(6, rng=rng)
    schedule = get_algorithm("row_major_row_first")
    outcome = run_sort("vectorized", schedule, grid)
    assert outcome.backend == "vectorized"
    np.testing.assert_array_equal(
        run_steps("vectorized", schedule, grid, outcome.steps_scalar()),
        outcome.final,
    )


def test_iter_run_yields_snapshots(rng):
    grid = random_permutation_grid(6, rng=rng)
    schedule = get_algorithm("snake_1")
    seen = []
    for t, state in iter_run("vectorized", schedule, grid, 4):
        seen.append((t, state.copy()))
    assert [t for t, _ in seen] == [1, 2, 3, 4]
    for t, state in seen:
        np.testing.assert_array_equal(
            state, run_steps("vectorized", schedule, grid, t)
        )


def test_iter_run_copy_false_yields_live_buffer(rng):
    grid = random_permutation_grid(6, rng=rng)
    schedule = get_algorithm("snake_1")
    buffers = [state for _, state in iter_run(
        "vectorized", schedule, grid, 3, copy=False
    )]
    assert buffers[0] is buffers[1] is buffers[2]
