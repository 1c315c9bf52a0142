"""Markdown summary report generation (``repro run --summary``).

Regenerates an EXPERIMENTS.md-style artifact from fresh runs: one section
per experiment with the full result table fenced as code, prefixed by the
run configuration so the artifact is self-describing and reproducible, and
closed with a phase-timing table showing where the run's wall time went.
"""

from __future__ import annotations

from pathlib import Path

from repro._version import __version__
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment
from repro.obs.timing import PhaseTimer, format_seconds

__all__ = ["write_summary"]

_HEADER = """# Experiment summary — Savari (SPAA 1993) reproduction

Generated by `repro run --summary` with repro v{version},
scale=`{scale}`, seed={seed}.  Each section reproduces the paper artifact
named in its title; DESIGN.md maps experiment ids to theorems, and
EXPERIMENTS.md interprets the full-scale numbers.
"""


def write_summary(
    path: str | Path,
    cfg: ExperimentConfig,
    *,
    ids: list[str] | None = None,
    echo=print,
    timer: PhaseTimer | None = None,
) -> Path:
    """Run the selected experiments and write a markdown summary to ``path``.

    ``timer`` lets the CLI share one :class:`~repro.obs.timing.PhaseTimer`
    (and thus one metrics registry) across the whole invocation; a private
    timer is used otherwise.  Either way the summary ends with a
    per-experiment timing section.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = ids or experiment_ids()
    if timer is None:
        timer = PhaseTimer()
    sections = [_HEADER.format(version=__version__, scale=cfg.scale, seed=cfg.seed)]
    for exp_id in ids:
        with timer.phase(exp_id) as phase:
            table = run_experiment(exp_id, cfg)
        echo(f"  {exp_id}: done in {format_seconds(phase.elapsed)}")
        sections.append(
            f"## {exp_id} — {EXPERIMENTS[exp_id].paper_artifact}\n\n"
            f"```\n{table.to_text()}\n```\n"
            f"*({phase.elapsed:.1f}s at scale={cfg.scale})*\n"
        )
    sections.append(
        "## Timing\n\n"
        f"```\n{timer.render_table()}\n```\n"
    )
    path.write_text("\n".join(sections))
    return path
