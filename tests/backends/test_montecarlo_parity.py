"""Monte-Carlo samplers give identical results on every backend.

Grids are drawn in the same batched RNG order regardless of backend, and
the backends agree step-for-step, so the same seed must yield bit-identical
samples whether the batch runs on the vectorized kernels or trial-by-trial
on a single-grid backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.execution import ExecutionOptions
from repro.errors import DimensionError
from repro.experiments import sample
from repro.experiments.config import ExperimentConfig
from repro.zeroone.weights import first_column_zeros


def test_sample_backend_parity():
    baseline = sample("snake_1", side=6, trials=8, seed=123).values
    for backend in ("reference", "mesh", "rect"):
        steps = sample("snake_1", side=6, trials=8, seed=123, backend=backend).values
        np.testing.assert_array_equal(steps, baseline)


def test_sample_parity_across_batch_boundaries():
    baseline = sample("row_major_row_first", side=4, trials=7, seed=9, batch_size=3).values
    again = sample(
        "row_major_row_first", side=4, trials=7, seed=9, batch_size=3, backend="reference"
    ).values
    np.testing.assert_array_equal(again, baseline)


def test_sample_statistic_backend_parity():
    def stat(grids):
        return np.atleast_1d(np.asarray(first_column_zeros(grids)))

    def draw(backend=None):
        return sample(
            "snake_1", side=6, trials=10, kind="statistic", statistic=stat,
            seed=77, backend=backend,
        ).values

    baseline = draw()
    for backend in ("reference", "rect"):
        np.testing.assert_array_equal(draw(backend), baseline)


def test_experiment_config_validates_backend():
    cfg = ExperimentConfig(execution=ExecutionOptions(backend="reference"))
    assert cfg.execution.backend == "reference"
    with pytest.raises(DimensionError, match="unknown backend"):
        ExperimentConfig(execution=ExecutionOptions(backend="no-such-backend"))
