"""Processor-level mesh backend.

Wraps :class:`~repro.mesh.machine.MeshMachine` in the backend protocol.
The machine keeps its construction-time wire check (a schedule either fits
the topology or raises :class:`~repro.errors.MissingWireError` at
``prepare``) and its per-wire traffic accounting; the driver owns the event
stream, so the backend silences the machine's own manual-stepping
dispatch path by detaching its observer.

Step events from this backend carry ``grid=None`` (assembling an array
from the processor memories every step is the expensive part) plus the
step's comparison count; cycle events carry the materialized grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backends.base import Backend, ExecutorRun, StepStats
from repro.core.orders import target_grid
from repro.core.schedule import Schedule
from repro.mesh.machine import MeshMachine

if TYPE_CHECKING:
    from repro.mesh.topology import MeshTopology

__all__ = ["MeshRun", "MeshBackend"]


class MeshRun(ExecutorRun):
    """One processor-level run; exposes ``machine`` for wire statistics."""

    def __init__(self, machine: MeshMachine, target: np.ndarray):
        self.machine = machine
        self.target = target
        self.rows = machine.side
        self.cols = machine.side
        self.batch_shape = ()
        self.cycle_len = len(machine.schedule.steps)

    def apply_step(self, t: int, *, want_swaps: bool = False) -> StepStats:
        self.machine.t = t - 1
        swaps = self.machine.step()
        return StepStats(swaps=swaps, comparisons=self.machine.comparisons_at(t))

    def done_mask(self) -> np.ndarray:
        return np.array(np.array_equal(self.machine.as_array(), self.target))

    def materialize(self) -> np.ndarray:
        return self.machine.as_array()

    def step_grid(self) -> np.ndarray | None:
        return None


class MeshBackend(Backend):
    """The explicit-wire, processor-per-cell executor.

    A private instance can carry a fixed :class:`MeshTopology` (e.g. one
    without wrap-around wires); the registry's shared instance builds a topology
    matching each schedule.  ``last_machine`` keeps the machine of the most
    recent ``prepare`` so callers can read per-wire statistics afterwards.
    """

    name = "mesh"
    event_executor = "mesh"
    supports_batch = False
    supports_rect = False
    counts_swaps = True

    def __init__(self, topology: "MeshTopology | None" = None):
        self.topology = topology
        self.last_machine: MeshMachine | None = None

    def prepare(self, schedule: Schedule, grid: np.ndarray) -> MeshRun:
        machine = MeshMachine(schedule, grid, topology=self.topology)
        # The driver is the sole event emitter for driven runs; the machine's
        # own dispatch only serves manual ``machine.step()`` usage.
        machine.observer = None
        self.last_machine = machine
        target = target_grid(machine.as_array(), machine.side, schedule.order)
        return MeshRun(machine, target)
