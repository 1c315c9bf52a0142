"""``certify-sweep``: cold static sortedness certification of every family.

Why this workload: it is the only one that runs ``repro.analysis.semantics``
(the 0-1-principle model checker), whose cost is the exhaustive batch of
all 2^N 0-1 matrices through the comparator-IR interpreter.  The sweep is
fixed to the instances that are exhaustive within 16 cells, so raising the
certifier's exhaustive limit does not change its work.

One round, which is also one job (what ``repro analyze --certify`` does
over the families): ``certify_sortedness`` on each family's declared
``certified_sides`` (21 instances, up to ``odd_even`` at 1x16), with the
certificate cache cleared before each instance, in an order shuffled by
the seed.  Each certificate is one checked output (``certs_per_s``).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

import numpy as np

from pb import pinned
from pb.common import Tally, probe_setup

NAME = "certify-sweep"
PRIMARY = "certs_per_s"

#: ``(family, side)``: every declared certified side within 16 cells.
INSTANCES = tuple(
    [(family, side) for family in ("row_major_row_first", "row_major_col_first")
     for side in (2, 4)]
    + [(family, side) for family in ("snake_1", "snake_2", "snake_3", "shearsort")
       for side in (2, 3, 4)]
    + [("odd_even", side) for side in (2, 3, 4, 8, 16)]
)


def build_instances() -> list[tuple[str, Any, int, int]]:
    """``(label, schedule, rows, cols)`` for every instance."""
    from repro.schedules import build_schedule, mesh_shape

    out = []
    for family, side in INSTANCES:
        schedule = build_schedule(family, side)
        rows, cols = mesh_shape(schedule, side)
        out.append((f"{family}@{side}", schedule, rows, cols))
    return out


def prepare() -> None:
    import repro.analysis.semantics  # noqa: F401  (the certifier's import cost)

    build_instances()


def certify_cold(schedule: Any, rows: int, cols: int) -> Any:
    from repro.analysis import semantics

    semantics.semantics_cache_clear()
    return semantics.certify_sortedness(schedule, rows, cols)


def pin_entries() -> dict[str, int | None]:
    """Minimal certified step bound of every instance."""
    return {
        label: certify_cold(schedule, rows, cols).step_bound
        for label, schedule, rows, cols in build_instances()
    }


class Workload:
    def __init__(self, seed: int, work: Path, root: Path):
        self.seed = seed
        self.work = work
        self.root = root
        self.instances: list[tuple[str, Any, int, int]] = []

    def setup(self) -> float:
        setup_s = probe_setup(self.root, self.work, NAME)
        self.instances = build_instances()
        return setup_s

    def measure(self, seconds: float, tally: Tally, rec: Any = None) -> None:
        from repro.schedules import get_family

        expected = pinned.load()[NAME]
        start = time.perf_counter()
        while True:
            order = np.random.default_rng([self.seed, tally.rounds]).permutation(
                len(self.instances)
            )
            began = time.perf_counter()
            for index in order:
                label, schedule, rows, cols = self.instances[index]
                try:
                    cert = certify_cold(schedule, rows, cols)
                except Exception as exc:
                    tally.fail(f"{label}: {exc!r}")
                    continue
                tally.trials += cert.inputs_checked
                cells = rows * cols
                tally.cell_steps += float(cert.inputs_checked) * (cert.step_bound or 0) * cells
                family, side = label.split("@")
                declared = int(side) in get_family(family).certified_sides
                tally.check(
                    declared
                    and cert.certified
                    and cert.mode == "exhaustive"
                    and cert.inputs_checked == 2**cells
                    and cert.step_bound == expected.get(label),
                    f"{label}: {cert.verdict} bound {cert.step_bound} "
                    f"(declared={declared}, pinned {expected.get(label)})",
                )
            tally.latencies.append(time.perf_counter() - began)
            tally.close_round(time.perf_counter() - start)
            if tally.elapsed >= seconds:
                return

    def verify(self, tally: Tally) -> None:
        pass  # every certificate was checked against its pinned bound in measure

    def layer_metrics(self, rec: Any, tally: Tally) -> dict[str, float]:
        matrices = tally.rounds * sum(2 ** (rows * cols) for _, _, rows, cols in self.instances)
        tally.check(
            rec.get("semantics.matrices") == matrices,
            f"semantics.matrices {rec.get('semantics.matrices')} != {matrices}",
            measured=False,
        )
        return {}

    def close(self) -> None:
        pass
