"""Shared configuration for experiment runs.

Two scales are provided: ``quick`` (seconds per experiment; the tier-1
tests check every experiment's claim at it, and ``results/SUMMARY.md``
records it) and ``full`` (minutes; used to produce ``results/full/`` and
the numbers recorded in EXPERIMENTS.md).  All randomness derives from ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.execution import ExecutionOptions
from repro.errors import DimensionError

__all__ = ["ExperimentConfig"]


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    Execution is carried by one frozen
    :class:`~repro.campaign.execution.ExecutionOptions` (``execution``),
    passed unchanged to :func:`repro.experiments.sample`.  Its ``backend``
    selects the execution backend for the Monte-Carlo samplers (any name
    from :func:`repro.backends.available_backends`).  The single-grid
    backends are orders of magnitude slower than the vectorized default;
    they exist here for end-to-end cross-validation runs.
    """

    scale: str = "quick"
    seed: int = 20260706
    execution: ExecutionOptions = field(
        default_factory=lambda: ExecutionOptions(backend="vectorized")
    )

    def __post_init__(self) -> None:
        if self.scale not in ("quick", "full"):
            raise DimensionError(f"scale must be 'quick' or 'full', got {self.scale!r}")
        from repro.backends import available_backends

        backend = self.execution.backend
        if backend is not None and backend not in available_backends():
            raise DimensionError(
                f"unknown backend {backend!r}; "
                f"available: {', '.join(available_backends())}"
            )

    @property
    def even_sides(self) -> list[int]:
        """Even mesh sides for the sweep experiments."""
        return [8, 12, 16] if self.scale == "quick" else [8, 16, 24, 32]

    @property
    def odd_sides(self) -> list[int]:
        """Odd mesh sides for the appendix experiments."""
        return [7, 9, 13] if self.scale == "quick" else [9, 15, 21, 27]

    @property
    def trials(self) -> int:
        """Trials per cell for step-count averages."""
        return 64 if self.scale == "quick" else 256

    @property
    def moment_trials(self) -> int:
        """Trials per cell for one-step moment estimation (cheap per trial)."""
        return 4000 if self.scale == "quick" else 20000

    @property
    def invariant_trials(self) -> int:
        """Random matrices per lemma-checking cell."""
        return 10 if self.scale == "quick" else 40

    @property
    def linear_sizes(self) -> list[int]:
        """Array lengths for the 1-D experiment."""
        return [16, 64, 256] if self.scale == "quick" else [16, 64, 256, 1024]
