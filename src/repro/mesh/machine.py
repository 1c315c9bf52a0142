"""Processor-level executor: comparator exchanges over explicit wires.

:class:`MeshMachine` runs the same :class:`~repro.core.schedule.Schedule` IR
as the vectorized engine, but at the granularity the paper describes the
hardware: each cell is a processor holding one word; at each step the
scheduled comparator pairs exchange values over the wire that connects them.
The machine

* refuses comparators scheduled over missing wires (running a row-major
  schedule on a mesh built without wrap-around wires raises
  :class:`~repro.errors.MissingWireError`), and
* accounts traffic per wire (a comparison always costs one exchange on its
  wire; a *swap* is additionally counted), which the experiments use to
  report wire utilisation — including how much work the extra wrap wires do.

Being step-for-step identical to the other executors is asserted by the
cross-validation tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.algorithms import check_side
from repro.core.orders import is_sorted_grid
from repro.core.schedule import Schedule, comparator_pairs, validate_schedule
from repro.errors import DimensionError, MissingWireError
from repro.mesh.topology import Cell, MeshTopology
from repro.obs.context import resolve_observer
from repro.obs.events import Observer

__all__ = ["LinkStats", "MeshMachine"]


@dataclass
class LinkStats:
    """Per-wire traffic accounting."""

    comparisons: Counter = field(default_factory=Counter)
    swaps: Counter = field(default_factory=Counter)

    def total_comparisons(self) -> int:
        return sum(self.comparisons.values())

    def total_swaps(self) -> int:
        return sum(self.swaps.values())

    def busiest_links(self, k: int = 5) -> list[tuple[tuple[Cell, Cell], int]]:
        return self.comparisons.most_common(k)


class MeshMachine:
    """A mesh of single-word processors executing a comparator schedule."""

    def __init__(
        self,
        schedule: Schedule,
        grid: np.ndarray | Sequence[Sequence[int]],
        *,
        topology: MeshTopology | None = None,
        observer: Observer | None = None,
    ):
        values = np.array(grid, copy=True)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DimensionError(
                f"MeshMachine requires a single square grid, got shape {values.shape}"
            )
        self.side = int(values.shape[0])
        check_side(schedule, self.side)
        validate_schedule(schedule, self.side)
        self.schedule = schedule
        if topology is None:
            topology = MeshTopology(self.side, wraparound=schedule.uses_wraparound)
        if topology.side != self.side:
            raise DimensionError(
                f"topology side {topology.side} != grid side {self.side}"
            )
        self.topology = topology
        # Processor-local memories: one word per cell.
        self.memory: dict[Cell, int] = {
            (r, c): int(values[r, c]) for r in range(self.side) for c in range(self.side)
        }
        self.t = 0
        self.stats = LinkStats()
        # Resolved once at construction: explicit argument beats the ambient
        # context observer; None keeps step() on the uninstrumented path.
        self.observer = resolve_observer(observer)
        self._pairs_per_step = [
            [pair for op in step for pair in comparator_pairs(op, self.side)]
            for step in schedule.steps
        ]
        # Wire check is static: a schedule either fits the topology or not.
        for step_pairs in self._pairs_per_step:
            for low, high in step_pairs:
                if not self.topology.has_link(low, high):
                    raise MissingWireError(
                        f"schedule {schedule.name!r} compares {low} with {high}, "
                        f"but the mesh (wraparound={self.topology.wraparound}) has "
                        "no wire between them"
                    )

    def step(self) -> int:
        """Execute the next schedule step: every scheduled pair exchanges
        values over its wire and keeps the smaller at the designated end.

        Returns the number of swaps the step performed.  When the machine
        is stepped manually with an attached observer, step/cycle events are
        dispatched through the driver's emit helpers; when the machine runs
        under the unified driver (the ``"mesh"`` backend),
        the driver is the sole emitter and ``self.observer`` is ``None``.
        """
        from repro.backends.driver import emit_cycle, emit_step

        self.t += 1
        pairs = self._pairs_per_step[(self.t - 1) % len(self._pairs_per_step)]
        mem = self.memory
        swaps = 0
        for low, high in pairs:
            edge = (low, high) if low <= high else (high, low)
            self.stats.comparisons[edge] += 1
            a, b = mem[low], mem[high]
            if a > b:
                mem[low], mem[high] = b, a
                self.stats.swaps[edge] += 1
                swaps += 1
        obs = self.observer
        if obs is not None:
            # Dispatched only after every exchange of the step has landed,
            # so a raising observer cannot leave the memories half-stepped.
            emit_step(obs, t=self.t, grid=None, swaps=swaps, comparisons=len(pairs))
            cycle_len = len(self._pairs_per_step)
            if self.t % cycle_len == 0:
                emit_cycle(
                    obs, cycle=self.t // cycle_len, t=self.t, grid=self.as_array()
                )
        return swaps

    def comparisons_at(self, t: int) -> int:
        """Number of comparator firings in (1-based) schedule step ``t``."""
        return len(self._pairs_per_step[(t - 1) % len(self._pairs_per_step)])

    def run(self, num_steps: int) -> None:
        for _ in range(num_steps):
            self.step()

    def as_array(self) -> np.ndarray:
        out = np.empty((self.side, self.side), dtype=np.int64)
        for (r, c), v in self.memory.items():
            out[r, c] = v
        return out

    def is_sorted(self) -> bool:
        return bool(is_sorted_grid(self.as_array(), self.schedule.order))

