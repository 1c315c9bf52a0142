"""The registry families that replaced the old entry points stay bit-identical.

The 1-D odd-even sorter is now the registry family ``odd_even``, run as a
``(..., 1, N)`` mesh by the shared backend/driver stack.  These tests keep
a verbatim copy of the historical pure-NumPy loop as the bit-identity
oracle and check ``run_sort`` against it (steps, final arrays, cap
behaviour), plus the registry builders that replaced the shearsort and
no-wrap constructors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.backends import iter_run, run_sort
from repro.errors import StepLimitExceeded
from repro.linear.odd_even import transposition_step, worst_case_input
from repro.schedules import (
    build_odd_even,
    build_row_major_no_wrap,
    build_shearsort,
    resolve,
    shearsort_phases,
    shearsort_step_count,
    smallest_column_adversary,
)


# ---------------------------------------------------------------------------
# The historical pure-NumPy odd-even loop, copied verbatim from the
# pre-registry implementation as the bit-identity oracle.
# ---------------------------------------------------------------------------


@dataclass
class _LegacyOutcome:
    steps: np.ndarray
    completed: np.ndarray
    final: np.ndarray
    max_steps: int


def _legacy_sort_linear(array, *, direction=1, max_steps=None, raise_on_cap=False):
    work = np.array(array, copy=True)
    n = work.shape[-1]
    if max_steps is None:
        max_steps = n + 2
    target = np.sort(work, axis=-1)
    if direction == -1:
        target = target[..., ::-1]

    batch_shape = work.shape[:-1]
    steps = np.full(batch_shape, -1, dtype=np.int64)
    done = np.all(work == target, axis=-1)
    steps = np.where(done, 0, steps)

    t = 0
    while t < max_steps and not np.all(done):
        t += 1
        transposition_step(work, t, direction=direction)
        now = np.all(work == target, axis=-1)
        newly = now & ~done
        if np.any(newly):
            steps = np.where(newly, t, steps)
            done = done | now

    completed = np.asarray(done)
    if raise_on_cap and not np.all(completed):
        raise StepLimitExceeded(max_steps, int(np.sum(~completed)))
    return _LegacyOutcome(
        steps=np.asarray(steps), completed=completed, final=work, max_steps=max_steps
    )


def _registry_sort_linear(array, *, direction=1, max_steps=None, raise_on_cap=False):
    """The odd_even family on a ``(..., 1, N)`` mesh, in the oracle's shape.

    ``direction=-1`` runs the forward sort on the negated array: ``x -> -x``
    is strictly decreasing, so the trajectory mirrors the reverse bubble
    sort exactly and negating the result restores it.
    """
    arr = np.asarray(array)
    n = arr.shape[-1]
    if max_steps is None:
        max_steps = n + 2
    signed = arr if direction == 1 else -arr
    out = run_sort(
        "rect",
        build_odd_even(),
        signed[..., None, :],
        max_steps=max_steps,
        raise_on_cap=raise_on_cap,
    )
    final = out.final.reshape(arr.shape)
    return _LegacyOutcome(
        steps=np.asarray(out.steps),
        completed=np.asarray(out.completed),
        final=final if direction == 1 else -final,
        max_steps=out.max_steps,
    )


class TestLinearShim:
    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("batch_shape", [(), (3,), (2, 2)])
    def test_bit_identical_to_legacy_loop(self, direction, batch_shape):
        rng = np.random.default_rng((hash((direction, batch_shape)) & 0xFFFF,))
        for n in (2, 3, 5, 8, 13):
            size = (*batch_shape, n)
            arr = rng.integers(-50, 50, size=size)
            new = _registry_sort_linear(arr, direction=direction)
            old = _legacy_sort_linear(arr, direction=direction)
            np.testing.assert_array_equal(new.steps, old.steps)
            np.testing.assert_array_equal(new.completed, old.completed)
            np.testing.assert_array_equal(new.final, old.final)
            assert new.max_steps == old.max_steps

    def test_cap_behaviour_matches(self):
        arr = worst_case_input(9)
        new = _registry_sort_linear(arr, max_steps=3)
        old = _legacy_sort_linear(arr, max_steps=3)
        assert int(new.steps) == int(old.steps) == -1
        np.testing.assert_array_equal(new.final, old.final)
        with pytest.raises(StepLimitExceeded) as registry_err:
            _registry_sort_linear(arr, max_steps=3, raise_on_cap=True)
        with pytest.raises(StepLimitExceeded) as legacy_err:
            _legacy_sort_linear(arr, max_steps=3, raise_on_cap=True)
        assert str(registry_err.value) == str(legacy_err.value)

    def test_already_sorted_records_zero_steps(self):
        out = run_sort("rect", build_odd_even(), np.arange(6).reshape(1, 6))
        assert out.steps_scalar() == 0
        assert bool(np.all(out.completed))

    def test_worst_case_needs_n_minus_one(self):
        n = 8
        out = run_sort("rect", build_odd_even(), worst_case_input(n).reshape(1, n))
        assert out.steps_scalar() >= n - 1
        assert int(_legacy_sort_linear(worst_case_input(n)).steps) == out.steps_scalar()

    def test_registry_cycle_equals_transposition_step(self):
        """The odd_even family's 2-step cycle IS transposition_step."""
        rng = np.random.default_rng(5)
        arr = rng.permutation(10)
        mirror = arr.copy()
        for t, snap in iter_run("rect", build_odd_even(), arr.reshape(1, 10), 6):
            transposition_step(mirror, t)
            np.testing.assert_array_equal(np.asarray(snap).reshape(-1), mirror)


class TestBaselineShims:
    """The registry builders that replaced the shearsort and no-wrap
    constructors: spec resolution, instance naming and the helpers."""

    def test_shearsort_warns_and_matches_registry(self):
        schedule = resolve("shearsort[side=6]")
        assert schedule == build_shearsort(side=6)
        assert schedule.name == "shearsort[side=6]"
        assert len(schedule.steps) == shearsort_step_count(6)

    def test_no_wrap_warns_and_matches_registry(self):
        assert resolve("row_major_no_wrap") == build_row_major_no_wrap()

    def test_phase_helpers_stay_warning_free(self):
        assert shearsort_step_count(8) == (2 * shearsort_phases(8) - 1) * 8

    def test_adversary_helper_stays_warning_free(self):
        grid = smallest_column_adversary(6)
        assert grid.shape == (6, 6)
