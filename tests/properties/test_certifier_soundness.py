"""Soundness of the static 0-1 certifier against the dynamic executors.

A CERTIFIED verdict is a *proof*: every 0-1 input reaches target order
within ``step_bound`` steps, hence (0-1 principle) every input does.  These
properties confront that proof with the real kernels — any divergence
means either the comparator-IR interpreter or an executor is wrong, which
is exactly the class of bug a reproduction repo most needs to catch.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.semantics import certify_sortedness
from repro.backends import run_sort
from repro.randomness import random_permutation_grid
from repro.schedules import available_families, build_schedule, get_family
from repro.verify import differential_run

#: Every (family, side) pair whose exhaustive certificate the registry
#: declares, restricted to square topology (the batch executors' home).
CERTIFIED_SQUARE_PAIRS = [
    (name, side)
    for name in available_families()
    if get_family(name).topology == "square"
    for side in get_family(name).certified_sides
]


@given(
    pair=st.sampled_from(CERTIFIED_SQUARE_PAIRS),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_certified_schedules_sort_within_the_certified_bound(pair, seed):
    name, side = pair
    schedule = build_schedule(name, side)
    cert = certify_sortedness(schedule, side, side)  # cached across examples
    assert cert.certified
    grid = random_permutation_grid(side, rng=seed)
    outcome = run_sort("vectorized", schedule, grid)
    steps = outcome.steps_scalar()
    assert 0 <= steps <= cert.step_bound, (name, side, steps, cert.step_bound)


@given(
    pair=st.sampled_from(CERTIFIED_SQUARE_PAIRS),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=15, deadline=None)
def test_certified_schedules_never_fail_a_differential_run(pair, seed):
    name, side = pair
    schedule = build_schedule(name, side)
    assert certify_sortedness(schedule, side, side).certified
    grid = random_permutation_grid(side, rng=seed)
    report = differential_run(schedule, grid)
    assert report.ok, report.describe()
