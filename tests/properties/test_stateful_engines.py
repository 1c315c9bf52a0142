"""Stateful cross-validation: arbitrary op sequences on two executors.

A hypothesis state machine drives the vectorized engine and the pure-Python
reference machine with the *same* randomly chosen comparator ops (not just
the five paper schedules — any valid op), asserting cell-for-cell equality
after every op.  This covers op sequencing and interleaving patterns the
fixed schedules never produce.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.backends import CompiledSchedule
from repro.core.reference import ReferenceMachine
from repro.core.schedule import FORWARD, REVERSE, LineOp, Schedule, Step, WrapOp
from repro.randomness import random_permutation_grid

SIDE = 6

line_ops = st.builds(
    LineOp,
    axis=st.sampled_from(["row", "col"]),
    offset=st.sampled_from([0, 1]),
    direction=st.sampled_from([FORWARD, REVERSE]),
    lines=st.sampled_from(["all", "odd", "even"]),
)
ops = st.one_of(line_ops, st.just(WrapOp()))


def _single_op_schedule(op) -> Schedule:
    return Schedule(name="fuzz", steps=(Step(op),), order="row_major")


class EnginesAgree(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**31))
    def setup(self, seed):
        grid = random_permutation_grid(SIDE, rng=seed)
        self.vector = grid.copy()
        self.reference = ReferenceMachine(_single_op_schedule(WrapOp()), grid)

    @rule(op=ops)
    def apply_op(self, op):
        schedule = _single_op_schedule(op)
        CompiledSchedule(schedule, SIDE).apply_step(self.vector, 1)
        # drive the reference machine with the same op
        ref = ReferenceMachine(schedule, self.reference.as_array())
        ref.step()
        self.reference = ref

    @invariant()
    def grids_equal(self):
        if not hasattr(self, "vector"):
            return
        np.testing.assert_array_equal(self.vector, self.reference.as_array())

    @invariant()
    def multiset_preserved(self):
        if not hasattr(self, "vector"):
            return
        assert sorted(self.vector.ravel().tolist()) == list(range(SIDE * SIDE))


EnginesAgree.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
TestEnginesAgree = EnginesAgree.TestCase
