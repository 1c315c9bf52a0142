"""ProgressPrinter: throttling, campaign shard lines, rate + ETA."""

from __future__ import annotations

import io

import numpy as np

from repro.backends import run_sort
from repro.core.algorithms import get_algorithm
from repro.obs import ProgressPrinter
from repro.obs.events import CampaignEnd, CampaignStart, ShardEnd


def perm_grid(side: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(side * side).reshape(side, side)


def campaign_start(num_shards: int, resumed: int = 0) -> CampaignStart:
    return CampaignStart(
        campaign="abcdef0123456789",
        algorithm="snake_1",
        side=8,
        trials=num_shards * 4,
        num_shards=num_shards,
        shard_size=4,
        workers=1,
        backend="vectorized",
        resumed_shards=resumed,
    )


def shard_end(index: int, *, from_checkpoint: bool = False) -> ShardEnd:
    return ShardEnd(
        campaign="abcdef0123456789",
        index=index,
        trials=4,
        elapsed=0.01,
        from_checkpoint=from_checkpoint,
    )


class TestRunLines:
    def test_engine_run_produces_output(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        run_sort("vectorized", get_algorithm("snake_1"), perm_grid(6), observer=printer)
        out = stream.getvalue()
        assert "run 1" in out
        assert printer.summary().startswith("1 runs")


class TestShardLines:
    def test_progress_counter_and_pace_on_final_shard(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer.on_campaign_start(campaign_start(3))
        for index in range(3):
            printer.on_shard_end(shard_end(index))
        out = stream.getvalue()
        assert "[3/3" in out
        assert "shards/s" in out

    def test_eta_shown_while_shards_remain(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream, every=5)  # every//5 -> report each shard
        printer.on_campaign_start(campaign_start(10))
        printer.on_shard_end(shard_end(0))
        out = stream.getvalue()
        assert "eta" in out
        assert "shards/s" in out

    def test_checkpoint_shards_excluded_from_rate(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer.on_campaign_start(campaign_start(4, resumed=4))
        for index in range(4):
            printer.on_shard_end(shard_end(index, from_checkpoint=True))
        out = stream.getvalue()
        # All shards replayed from checkpoint: no meaningful rate exists,
        # so the pace segment must be absent rather than absurd.
        assert "shards/s" not in out
        assert "eta" not in out
        assert "[4/4]" in out

    def test_campaign_end_line(self):
        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer.on_campaign_start(campaign_start(2))
        printer.on_campaign_end(
            CampaignEnd(
                campaign="abcdef0123456789",
                trials=8,
                elapsed=0.1,
                complete=True,
                num_shards=2,
                completed_shards=2,
            )
        )
        assert "complete" in stream.getvalue()
