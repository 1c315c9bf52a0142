"""Observers that opt out of step events keep run_sort on its fast loop.

A default :class:`MetricsObserver` declares ``wants_step_events = False``,
so array backends run the strided, compacting loop and report the step
count once, in ``RunEnd.bulk_steps``.  ``MetricsObserver(swap_detail=True)``
wants every step and takes the observed stride-1 loop.  Both must give
identical metrics and identical ``SortOutcome`` values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import run_sort
from repro.campaign import CampaignSpec, execute_shard, execute_shard_observed
from repro.obs.events import CompositeObserver, Observer, RecordingObserver
from repro.obs.metrics import MetricsObserver
from repro.schedules import build_schedule, execution_backend
from repro.schedules.paper import PAPER_FAMILIES

PAPER = tuple(family.name for family in PAPER_FAMILIES)
COMPARED = ("repro_runs_total", "repro_steps_total", "repro_run_steps")


class CountingMetrics(MetricsObserver):
    """A MetricsObserver that also counts the step events it is shown."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.step_events = 0

    def on_step(self, event):
        self.step_events += 1
        super().on_step(event)


@st.composite
def family_and_side(draw):
    """A paper family and a side it supports (the row-major pair needs an
    even side)."""
    family = draw(st.sampled_from(PAPER_FAMILIES))
    sides = range(2, 9, 2) if family.requires_even_side else range(2, 9)
    return family.name, draw(st.sampled_from(sides))


def permutations(side: int, batch: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    count = int(np.prod(batch, dtype=np.int64))
    flat = np.stack([rng.permutation(side * side) for _ in range(count)])
    return flat.reshape(*batch, side, side)


def run_both(schedule, grids, **kwargs):
    """(outcome, observer) for the quiet and the detailed MetricsObserver."""
    backend = execution_backend(schedule)
    results = []
    for swap_detail in (False, True):
        obs = CountingMetrics(swap_detail=swap_detail)
        outcome = run_sort(backend, schedule, grids, observer=obs, **kwargs)
        results.append((outcome, obs))
    return results


def assert_same(quiet, detailed):
    (q_out, q_obs), (d_out, d_obs) = quiet, detailed
    np.testing.assert_array_equal(q_out.steps, d_out.steps)
    np.testing.assert_array_equal(q_out.completed, d_out.completed)
    np.testing.assert_array_equal(q_out.final, d_out.final)
    assert q_out.final.dtype == d_out.final.dtype
    q_metrics, d_metrics = q_obs.registry.as_dict(), d_obs.registry.as_dict()
    for name in COMPARED:
        assert q_metrics[name] == d_metrics[name], name
    # The quiet observer really took the fast path; the detailed one saw
    # one event per step it counted.
    assert q_obs.step_events == 0
    assert d_obs.step_events == d_metrics["repro_steps_total"]["value"]


@settings(max_examples=60)
@given(
    family_side=family_and_side(),
    batch=st.sampled_from([(), (7,)]),
    presorted=st.booleans(),
    cap=st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_quiet_and_detailed_metrics_agree(family_side, batch, presorted, cap, seed):
    family, side = family_side
    schedule = build_schedule(family, side)
    grids = permutations(side, batch, seed)
    if presorted:
        grids = run_sort(execution_backend(schedule), schedule, grids).final
    quiet, detailed = run_both(schedule, grids, max_steps=cap)
    assert_same(quiet, detailed)


@pytest.mark.parametrize("family", PAPER)
@pytest.mark.parametrize("batch", [(), (7,)])
def test_every_paper_family(family, batch):
    quiet, detailed = run_both(build_schedule(family, 6), permutations(6, batch, 3))
    assert_same(quiet, detailed)
    outcome, obs = quiet
    steps = obs.registry.as_dict()["repro_steps_total"]["value"]
    assert steps == int(np.max(outcome.steps)) > 0


def test_already_sorted_batch_counts_zero_steps():
    schedule = build_schedule("snake_1", 5)
    grids = run_sort("vectorized", schedule, permutations(5, (7,), 1)).final
    quiet, detailed = run_both(schedule, grids)
    assert_same(quiet, detailed)
    metrics = quiet[1].registry.as_dict()
    assert metrics["repro_steps_total"]["value"] == 0
    assert metrics["repro_runs_total"]["value"] == 1
    assert metrics["repro_run_steps"]["count"] == 7


def test_capped_run_counts_the_cap():
    schedule = build_schedule("row_major_row_first", 8)
    quiet, detailed = run_both(schedule, permutations(8, (7,), 5), max_steps=9)
    assert_same(quiet, detailed)
    outcome, obs = quiet
    assert not outcome.completed.any()
    metrics = obs.registry.as_dict()
    assert metrics["repro_steps_total"]["value"] == 9
    assert metrics["repro_run_steps"]["count"] == 0


def test_run_end_carries_bulk_steps_only_on_the_fast_path():
    schedule = build_schedule("snake_2", 6)
    grids = permutations(6, (7,), 2)

    class Quiet(RecordingObserver):
        wants_step_events = False

    quiet, loud = Quiet(), RecordingObserver()
    outcome = run_sort("vectorized", schedule, grids, observer=quiet)
    run_sort("vectorized", schedule, grids, observer=loud)
    assert quiet.steps == [] and quiet.cycles == []
    assert len(quiet.run_starts) == 1
    assert quiet.run_ends[0].bulk_steps == int(outcome.steps.max())
    assert loud.run_ends[0].bulk_steps is None
    assert len(loud.steps) == int(outcome.steps.max())


def test_composite_with_a_step_consumer_gets_every_step_event():
    schedule = build_schedule("snake_3", 6)
    grids = permutations(6, (7,), 4)
    recorder = RecordingObserver()
    metrics = MetricsObserver()
    composite = CompositeObserver([metrics, recorder])
    assert composite.wants_step_events
    assert not CompositeObserver([MetricsObserver()]).wants_step_events
    outcome = run_sort("vectorized", schedule, grids, observer=composite)
    t_f = int(outcome.steps.max())
    assert recorder.step_times == list(range(1, t_f + 1))
    assert metrics.registry.as_dict()["repro_steps_total"]["value"] == t_f


def test_duck_typed_observers_default_to_step_events():
    class Plain:
        def __init__(self):
            self.steps = 0

        def on_run_start(self, event):
            pass

        def on_step(self, event):
            self.steps += 1

        def on_cycle(self, event):
            pass

        def on_run_end(self, event):
            pass

    plain = Plain()
    outcome = run_sort("vectorized", build_schedule("snake_1", 4),
                       permutations(4, (), 8), observer=plain)
    assert Observer.wants_step_events
    assert plain.steps == int(outcome.steps)


def test_cell_level_backends_keep_step_events():
    obs = CountingMetrics()
    outcome = run_sort("reference", build_schedule("snake_1", 4),
                       permutations(4, (), 6), observer=obs)
    assert obs.step_events == int(outcome.steps) > 0
    assert obs.registry.as_dict()["repro_steps_total"]["value"] == obs.step_events


@pytest.mark.parametrize("algorithm", ["snake_1", "row_major_col_first"])
def test_observed_shard_matches_plain_shard(algorithm):
    spec = CampaignSpec(algorithm=algorithm, side=6, trials=24, seed=7, shard_size=8)
    values, metrics, _spans = execute_shard_observed(spec, 1, 8)
    np.testing.assert_array_equal(values, execute_shard(spec, 1, 8))
    assert metrics["repro_runs_total"]["value"] >= 1
    assert metrics["repro_steps_total"]["value"] >= int(np.max(values)) > 0
