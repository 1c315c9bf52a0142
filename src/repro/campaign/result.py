"""The one result type of the unified sampling API.

Both sampling entry points — the :func:`repro.experiments.sample` facade
and :func:`repro.campaign.run_campaign` — produce a :class:`SampleResult`:
the raw per-trial values, a
:class:`~repro.experiments.montecarlo.TrialStats` summary, and enough
manifest metadata to replay or audit the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.obs.manifest import RunManifest, array_digest

if TYPE_CHECKING:
    from repro.experiments.montecarlo import TrialStats

__all__ = ["SampleResult"]


@dataclass
class SampleResult:
    """Values + summary + provenance of one Monte-Carlo sample.

    ``values`` is per-trial, ordered by the draw plan (trial order for
    in-process runs, shard-index order for campaigns) — deterministic for
    a fixed spec, independent of worker count and scheduling.

    For budgeted partial campaign runs (``max_shards``) ``complete`` is
    False and ``values``/``stats`` cover only the completed shards; resume
    the campaign to finish the plan.

    The result is array-like (``np.mean(result)``, ``result / n`` work
    directly) so experiment code can treat it as the sample it wraps.
    """

    values: np.ndarray
    stats: "TrialStats"
    meta: dict[str, Any] = field(default_factory=dict)
    complete: bool = True

    @classmethod
    def from_values(
        cls, values: np.ndarray, meta: dict[str, Any], *, complete: bool = True
    ) -> "SampleResult":
        # Imported here, not at module top: repro.experiments re-exports this
        # class, so a top-level import would be circular.
        from repro.experiments.montecarlo import summarize

        return cls(
            values=values, stats=summarize(values), meta=dict(meta), complete=complete
        )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        arr = self.values
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if copy:
            arr = arr.copy()
        return arr

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def values_digest(self) -> str:
        """Bit-exact digest of ``values`` (the determinism test currency)."""
        return array_digest(self.values)

    def to_manifest(self) -> RunManifest:
        """A replayable manifest of this sample.

        ``kind`` is ``"campaign"`` for sharded runs and ``"run"`` for
        in-process ones; ``result_digest`` is the bit-exact values digest,
        so re-running the recorded spec must reproduce it exactly.
        """
        meta = dict(self.meta)
        kind = "campaign" if meta.get("mode") == "campaign" else "run"
        seed = meta.get("seed")
        return RunManifest(
            kind=kind,
            algorithm=str(meta.get("algorithm", "")),
            side=meta.get("side"),
            seed=list(seed) if isinstance(seed, tuple) else seed,
            elapsed_seconds=meta.get("elapsed"),
            result_digest=self.values_digest,
            extra={
                key: value
                for key, value in meta.items()
                if key not in ("algorithm", "side", "seed", "elapsed")
            },
        )
