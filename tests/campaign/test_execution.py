"""ExecutionOptions: validation, facade equivalence, ExperimentConfig."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    CheckpointStore,
    ExecutionOptions,
    checkpoint_path,
    run_campaign,
)
from repro.errors import CheckpointError, DimensionError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sampling import sample

SPEC = CampaignSpec("snake_1", side=6, trials=40, seed=99, shard_size=8)


class TestValidation:
    def test_defaults_are_not_campaign_mode(self):
        options = ExecutionOptions()
        assert not options.campaign_mode

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 2},
            {"shard_size": 8},
            {"checkpoint_dir": "/tmp/ck"},
            {"store": "/tmp/store"},
            {"max_shards": 2, "checkpoint_dir": "/tmp/ck"},
        ],
    )
    def test_campaign_granularity_options_force_campaign_mode(self, kwargs):
        assert ExecutionOptions(**kwargs).campaign_mode

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"workers": 0}, "workers"),
            ({"retries": -1}, "retries"),
            ({"shard_size": 0}, "shard_size"),
            ({"max_shards": 0}, "max_shards"),
            ({"resume": True}, "requires checkpoint_dir"),
            ({"max_shards": 3}, "requires checkpoint_dir"),
        ],
    )
    def test_invalid_options_rejected_at_construction(self, kwargs, match):
        with pytest.raises(DimensionError, match=match):
            ExecutionOptions(**kwargs)

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ExecutionOptions().workers = 2  # type: ignore[misc]

    def test_describe_is_json_ready(self, tmp_path):
        from repro.store import LocalResultStore

        options = ExecutionOptions(
            workers=2, checkpoint_dir=tmp_path, store=LocalResultStore(tmp_path)
        )
        described = options.describe()
        assert described["workers"] == 2
        assert described["checkpoint_dir"] == str(tmp_path)
        assert described["store"] == f"local:{tmp_path}"
        import json

        json.dumps(described)  # must not raise


class TestFacadeEquivalence:
    def test_execution_matches_loose_kwargs(self):
        loose = sample("snake_1", side=6, trials=40, seed=99, workers=2)
        packed = sample(
            "snake_1", side=6, trials=40, seed=99,
            execution=ExecutionOptions(workers=2),
        )
        np.testing.assert_array_equal(packed.values, loose.values)
        assert packed.values_digest == loose.values_digest

    def test_loose_and_execution_conflict_raises(self):
        with pytest.raises(DimensionError, match="not both"):
            sample(
                "snake_1", side=6, trials=40, seed=99,
                workers=2, execution=ExecutionOptions(workers=2),
            )

    def test_run_campaign_conflict_raises(self):
        with pytest.raises(DimensionError, match="not both"):
            run_campaign(SPEC, workers=2, execution=ExecutionOptions(workers=2))

    def test_run_campaign_adopts_execution(self, tmp_path):
        options = ExecutionOptions(
            workers=2, checkpoint_dir=tmp_path, max_shards=2
        )
        partial = run_campaign(SPEC, execution=options)
        assert partial.complete is False
        assert partial.meta["workers"] == 2

    def test_execution_store_threads_through_facade(self, tmp_path):
        cold = sample(
            "snake_1", side=6, trials=40, seed=99,
            execution=ExecutionOptions(store=tmp_path),
        )
        assert cold.meta["store"]["hit"] is False
        warm = sample("snake_1", side=6, trials=40, seed=99, store=tmp_path)
        assert warm.meta["store"]["hit"] is True
        assert warm.values_digest == cold.values_digest


class TestExperimentConfig:
    def test_legacy_fields_build_execution(self):
        """Execution settings live only in ``execution``; the default runs
        the vectorized backend in-process."""
        cfg = ExperimentConfig(scale="quick")
        assert cfg.execution == ExecutionOptions(backend="vectorized")
        assert [f.name for f in fields(cfg)] == ["scale", "seed", "execution"]

    def test_explicit_execution_syncs_legacy_mirrors(self, tmp_path):
        """An explicit ``execution`` is kept as given; the loose execution
        fields are gone from the constructor."""
        execution = ExecutionOptions(workers=2, checkpoint_dir=tmp_path)
        cfg = ExperimentConfig(scale="quick", execution=execution)
        assert cfg.execution is execution
        with pytest.raises(TypeError):
            ExperimentConfig(scale="quick", workers=2)  # type: ignore[call-arg]


class TestCheckpointErrorFields:
    def test_fingerprint_mismatch_is_structured(self, tmp_path):
        """The mismatch error names the offending file and both spec
        identities as attributes, not just prose."""
        run_campaign(SPEC, workers=1, checkpoint_dir=tmp_path, max_shards=2)
        other = replace(SPEC, algorithm="snake_2")
        path = checkpoint_path(tmp_path, SPEC)
        with pytest.raises(CheckpointError) as excinfo:
            CheckpointStore(path, other).load()
        err = excinfo.value
        assert err.path == path
        assert err.spec_fingerprint == other.fingerprint
        assert err.checkpoint_fingerprint == SPEC.fingerprint
        assert err.spec_identity["algorithm"] == "snake_2"
        assert err.checkpoint_identity["algorithm"] == "snake_1"
        assert "differing identity field(s): algorithm" in str(err)

    def test_non_mismatch_errors_leave_fields_none(self, tmp_path):
        run_campaign(SPEC, workers=1, checkpoint_dir=tmp_path, max_shards=2)
        path = checkpoint_path(tmp_path, SPEC)
        lines = path.read_text().splitlines()
        lines.insert(1, "{torn but not the tail}")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt") as excinfo:
            CheckpointStore(path, SPEC).load()
        assert excinfo.value.spec_fingerprint is None
        assert excinfo.value.checkpoint_fingerprint is None

