"""run_sort's strided fast path against its observed stride-1 path.

With no observer, array backends check completion once per stride,
replay the stride for grids that just sorted, and drop sorted grids from
the working batch.  With an observer attached the same loop runs one step
per check on the full batch.  Both must return identical ``steps``,
``completed`` and ``final`` (values and dtype).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import compiled_schedule, run_sort
from repro.backends.driver import MAX_STRIDE
from repro.backends.vectorized import ArrayRun, VectorizedBackend
from repro.errors import StepLimitExceeded
from repro.obs.events import Observer
from repro.schedules import available_families, build_schedule, execution_backend, mesh_shape

BATCH_SHAPES = [(), (1,), (7,), (2, 3)]


def schedule_for(family: str, side: int):
    """The family's instance at ``side`` (seeded families get seed 11), or
    ``None`` when the family does not compile at that side."""
    schedule = build_schedule(family, side, seed=11)
    try:
        compiled_schedule(schedule, *mesh_shape(schedule, side))
    except Exception:
        return None
    return schedule


def both_paths(schedule, grids, **kwargs):
    backend = execution_backend(schedule)
    fast = run_sort(backend, schedule, grids, **kwargs)
    observed = run_sort(backend, schedule, grids, observer=Observer(), **kwargs)
    return fast, observed


def assert_same(fast, observed):
    assert fast.steps.shape == observed.steps.shape
    np.testing.assert_array_equal(fast.steps, observed.steps)
    assert fast.steps.dtype == observed.steps.dtype
    np.testing.assert_array_equal(fast.completed, observed.completed)
    assert fast.completed.shape == observed.completed.shape
    np.testing.assert_array_equal(fast.final, observed.final)
    assert fast.final.dtype == observed.final.dtype
    assert fast.final.shape == observed.final.shape
    assert fast.max_steps == observed.max_steps


def draw(kind: str, shape: tuple[int, int], batch: tuple[int, ...], seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    count = int(np.prod(batch, dtype=np.int64))
    if kind == "permutation":
        flat = np.stack([rng.permutation(n) for _ in range(count)])
    elif kind == "duplicates":
        flat = rng.integers(0, 3, size=(count, n))
    elif kind == "float":
        flat = rng.normal(size=(count, n))
    elif kind == "equal":
        flat = np.full((count, n), 5, dtype=np.int16)
    else:
        raise AssertionError(kind)
    return flat.reshape(*batch, *shape)


FAMILIES = available_families()


@given(
    family=st.sampled_from(FAMILIES),
    side=st.integers(min_value=2, max_value=9),
    batch=st.sampled_from(BATCH_SHAPES),
    kind=st.sampled_from(["permutation", "duplicates", "float", "equal"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fast_path_matches_observed_path(family, side, batch, kind, seed):
    schedule = schedule_for(family, side)
    if schedule is None:
        return
    grids = draw(kind, mesh_shape(schedule, side), batch, seed)
    assert_same(*both_paths(schedule, grids))


def outcome_or_error(schedule, grids, **kwargs):
    try:
        return run_sort(execution_backend(schedule), schedule, grids, **kwargs), None
    except StepLimitExceeded as exc:
        return None, (exc.steps_taken, exc.unfinished, str(exc))


@given(
    family=st.sampled_from(FAMILIES),
    side=st.integers(min_value=3, max_value=8),
    cap=st.integers(min_value=1, max_value=41),
    raise_on_cap=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_capped_runs_match(family, side, cap, raise_on_cap, seed):
    schedule = schedule_for(family, side)
    if schedule is None:
        return
    grids = draw("permutation", mesh_shape(schedule, side), (7,), seed)
    kwargs = {"max_steps": cap, "raise_on_cap": raise_on_cap}
    fast, fast_error = outcome_or_error(schedule, grids, **kwargs)
    observed, observed_error = outcome_or_error(schedule, grids, observer=Observer(), **kwargs)
    assert fast_error == observed_error
    if fast_error is None:
        assert_same(fast, observed)
        assert fast.max_steps == cap


#: Every family at an odd and an even side (the wrap-around row-major
#: algorithms need an even side, so they run at 6 and 8).
FAMILY_SIDES = [
    (family, side)
    for family in FAMILIES
    for side in ((6, 8) if build_schedule(family, 6, seed=11).requires_even_side else (5, 6))
]


@pytest.mark.parametrize(("family", "side"), FAMILY_SIDES)
@pytest.mark.parametrize("batch", BATCH_SHAPES)
def test_every_family_odd_and_even_sides(family, side, batch):
    schedule = schedule_for(family, side)
    grids = draw("permutation", mesh_shape(schedule, side), batch, seed=side)
    assert_same(*both_paths(schedule, grids))


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_linear_meshes_through_rect(n):
    schedule = build_schedule("odd_even", n)
    assert mesh_shape(schedule, n) == (1, n)
    grids = draw("permutation", (1, n), (2, 3), seed=n)
    fast = run_sort("rect", schedule, grids)
    observed = run_sort("rect", schedule, grids, observer=Observer())
    assert_same(fast, observed)
    assert fast.steps.max() <= n


@pytest.mark.parametrize("batch", BATCH_SHAPES)
def test_already_sorted_grids_take_zero_steps(batch):
    schedule = build_schedule("snake_1", 6)
    sorted_grid = run_sort("vectorized", schedule, draw("permutation", (6, 6), (), 1)).final
    grids = np.broadcast_to(sorted_grid, (*batch, 6, 6)).copy()
    fast, observed = both_paths(schedule, grids)
    assert_same(fast, observed)
    assert (fast.steps == 0).all()
    assert fast.completed.all()


def test_mixed_sorted_and_unsorted_batch():
    schedule = build_schedule("snake_2", 6)
    grids = draw("permutation", (6, 6), (5,), 3)
    grids[2] = run_sort("vectorized", schedule, grids[2]).final
    fast, observed = both_paths(schedule, grids)
    assert_same(fast, observed)
    assert fast.steps[2] == 0 and (np.delete(fast.steps, 2) > 0).all()


def test_all_equal_and_float_grids():
    schedule = build_schedule("snake_3", 7)
    for kind in ("equal", "float", "duplicates"):
        assert_same(*both_paths(schedule, draw(kind, (7, 7), (2, 3), 4)))


@pytest.mark.parametrize("raise_on_cap", [False, True])
def test_cap_not_a_multiple_of_the_cycle(raise_on_cap):
    schedule = build_schedule("row_major_row_first", 8)
    assert len(schedule.steps) == 4
    grids = draw("permutation", (8, 8), (7,), 5)
    full = run_sort("vectorized", schedule, grids)
    cap = int(np.median(full.steps)) // 4 * 4 + 3  # mid-cycle, some grids unsorted
    assert cap % 4 == 3
    expected = run_sort("vectorized", schedule, grids, max_steps=cap, observer=Observer())
    assert not expected.completed.all() and expected.completed.any()
    if raise_on_cap:
        with pytest.raises(StepLimitExceeded) as exc:
            run_sort("vectorized", schedule, grids, max_steps=cap, raise_on_cap=True)
        assert exc.value.steps_taken == cap
        return
    fast = run_sort("vectorized", schedule, grids, max_steps=cap)
    assert_same(fast, expected)
    # A capped grid stops at exactly the cap: its state is the one after
    # ``cap`` steps, not after the end of the stride.
    from repro.backends import run_steps

    after_cap = run_steps("vectorized", schedule, grids, cap)
    unsorted = ~fast.completed
    np.testing.assert_array_equal(fast.final[unsorted], after_cap[unsorted])


class CountingRun:
    """Patch ArrayRun to record every step call: (run, t, working batch size)."""

    def __init__(self, monkeypatch):
        self.calls: list[tuple[ArrayRun, int, int]] = []
        original = ArrayRun.apply_step

        def apply_step(run, t, *, want_swaps=False):
            self.calls.append((run, t, int(np.prod(run.batch_shape, dtype=np.int64))))
            return original(run, t, want_swaps=want_swaps)

        monkeypatch.setattr(ArrayRun, "apply_step", apply_step)


def test_one_step_call_per_executed_step_and_compaction(monkeypatch):
    schedule = build_schedule("snake_1", 8)
    grids = draw("permutation", (8, 8), (16,), 9)
    counter = CountingRun(monkeypatch)
    outcome = run_sort("vectorized", schedule, grids)
    main_run = counter.calls[0][0]
    main = [(t, b) for run, t, b in counter.calls if run is main_run]
    replays = [(t, b) for run, t, b in counter.calls if run is not main_run]
    # The main batch runs every step up to the end of the slowest grid's
    # 4-step stride, one call per step; replays re-run only steps inside a
    # stride (never its last step, which the stride's check already saw).
    slowest = int(outcome.steps.max())
    assert [t for t, _ in main] == list(range(1, -(-slowest // 4) * 4 + 1))
    assert replays and all(t % 4 != 0 for t, _ in replays)
    sizes = [b for _, b in main]
    assert sizes[0] == 16 and sizes == sorted(sizes, reverse=True)
    assert sizes[-1] < 16  # sorted grids left the working batch
    # Each grid costs its t_f, plus under one stride of rounding and under
    # one stride of replay.
    executed = sum(b for _, b in main + replays)
    assert int(outcome.steps.sum()) <= executed <= int(outcome.steps.sum()) + 16 * 2 * 3


def test_observed_path_steps_the_full_batch(monkeypatch):
    schedule = build_schedule("snake_1", 8)
    grids = draw("permutation", (8, 8), (16,), 9)
    counter = CountingRun(monkeypatch)
    outcome = run_sort("vectorized", schedule, grids, observer=Observer())
    assert [t for _, t, _ in counter.calls] == list(range(1, int(outcome.steps.max()) + 1))
    assert {b for _, _, b in counter.calls} == {16}


def test_long_cycles_are_strided_by_the_cap(monkeypatch):
    schedule = build_schedule("shearsort", 16)
    assert len(schedule.steps) > MAX_STRIDE
    grids = draw("permutation", (16, 16), (4,), 2)
    checks: list[int] = []
    original = ArrayRun.done_mask

    def done_mask(run):
        checks.append(1)
        return original(run)

    monkeypatch.setattr(ArrayRun, "done_mask", done_mask)
    fast = run_sort("vectorized", schedule, grids)
    strides = len(checks)
    checks.clear()
    observed = run_sort("vectorized", schedule, grids, observer=Observer())
    assert_same(fast, observed)
    assert strides < len(checks)
    # Every check (replays included) covers at most MAX_STRIDE main steps.
    assert strides >= int(fast.steps.max()) // MAX_STRIDE


def test_input_grid_never_modified():
    schedule = build_schedule("snake_1", 6)
    grids = draw("permutation", (6, 6), (2, 3), 8)
    before = grids.copy()
    outcome = run_sort("vectorized", schedule, grids)
    np.testing.assert_array_equal(grids, before)
    assert not np.shares_memory(outcome.final, grids)


def test_permutation_batches_store_one_target(monkeypatch):
    schedule = build_schedule("snake_1", 8)
    grids = draw("permutation", (8, 8), (16,), 9)
    counter = CountingRun(monkeypatch)
    fast, observed = both_paths(schedule, grids)
    assert_same(fast, observed)
    # The main run, its compacted batches and every replay broadcast one
    # stored target over their grids.
    assert all(run.target.strides[0] == 0 for run, _, _ in counter.calls)


def test_differing_targets_are_kept_per_grid():
    schedule = build_schedule("snake_1", 6)
    grids = draw("duplicates", (6, 6), (9,), 4)
    assert len({tuple(np.sort(g, axis=None)) for g in grids}) > 1
    assert VectorizedBackend().prepare(schedule, grids).target.strides[0] != 0
    assert_same(*both_paths(schedule, grids))
