"""Package-level tests: imports, exports, version, randomness utilities."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro.errors import DimensionError
from repro.randomness import (
    as_generator,
    paper_zero_count,
    random_permutation_grid,
    random_zero_one_grid,
    spawn_generators,
)

SUBMODULES = [
    "repro.backends",
    "repro.core",
    "repro.core.algorithms",
    "repro.core.orders",
    "repro.core.phases",
    "repro.core.reference",
    "repro.core.runner",
    "repro.core.schedule",
    "repro.linear",
    "repro.mesh",
    "repro.zeroone",
    "repro.theory",
    "repro.schedules",
    "repro.experiments",
    "repro.viz",
]


class TestPackage:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodules_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_all_exports_exist(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name}"

    def test_top_level_api(self):
        assert len(repro.ALGORITHM_NAMES) == 5
        grid = repro.random_permutation_grid(4, rng=0)
        report = repro.sort_grid("snake_1", grid)
        assert report.outcome.all_completed


class TestRandomness:
    def test_permutation_is_permutation(self):
        grid = random_permutation_grid(5, rng=0)
        assert sorted(grid.ravel().tolist()) == list(range(25))

    def test_batch_shapes(self):
        assert random_permutation_grid(4, batch=3, rng=0).shape == (3, 4, 4)
        assert random_permutation_grid(4, batch=(2, 3), rng=0).shape == (2, 3, 4, 4)

    def test_reproducible(self):
        a = random_permutation_grid(6, rng=42)
        b = random_permutation_grid(6, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_zero_one_counts(self):
        grid = random_zero_one_grid(5, rng=0)
        assert int((grid == 0).sum()) == paper_zero_count(5)

    def test_zero_one_custom_count(self):
        grid = random_zero_one_grid(4, zeros=3, rng=0)
        assert int((grid == 0).sum()) == 3

    def test_zero_one_invalid_count(self):
        with pytest.raises(DimensionError):
            random_zero_one_grid(4, zeros=17)

    def test_spawn_generators_independent(self):
        gens = spawn_generators(0, 3)
        draws = [g.integers(0, 2**32) for g in gens]
        assert len(set(draws)) == 3

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(0), 2)
        assert len(gens) == 2

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_bad_side(self):
        with pytest.raises(DimensionError):
            random_permutation_grid(0)


class TestErrors:
    def test_hierarchy(self):
        from repro.errors import (
            MissingWireError,
            ReproError,
            ScheduleValidationError,
            StepLimitExceeded,
            UnsupportedMeshError,
        )

        for exc in (
            DimensionError,
            MissingWireError,
            ScheduleValidationError,
            StepLimitExceeded(1, 1).__class__,
            UnsupportedMeshError,
        ):
            assert issubclass(exc, ReproError)

    def test_step_limit_message(self):
        from repro.errors import StepLimitExceeded

        err = StepLimitExceeded(100, 3)
        assert "100" in str(err) and "3" in str(err)
        assert err.steps_taken == 100 and err.unfinished == 3


class TestDoctests:
    """Docstring examples in the public entry points must stay runnable."""

    def test_runner_doctest(self):
        import doctest

        import repro.core.runner as runner

        results = doctest.testmod(runner, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 1


def test_api_docs_in_sync():
    """docs/API.md must match the current public surface."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(root / "tools" / "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
