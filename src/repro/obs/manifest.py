"""Run manifests: enough recorded configuration to replay any result.

A :class:`RunManifest` pins down everything that determines an experiment's
output — the experiment id, root seed, scale, package version, and the exact
CLI argv — plus a digest of the produced table.  Because every run in this
package is deterministic given (seed, scale), replaying the manifest's
:func:`replay_command` must reproduce the digest bit-for-bit; the test suite
asserts this round trip.

Manifests are written next to trace files by ``repro run --trace DIR`` so every table under ``results/`` can name the manifest that
produced it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro._version import __version__
from repro.errors import DimensionError

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "table_digest",
    "array_digest",
    "write_manifest",
    "load_manifest",
    "replay_command",
]

MANIFEST_SCHEMA_VERSION = 1


def table_digest(table) -> str:
    """Stable digest of a result table's rendered text."""
    return hashlib.blake2b(table.to_text().encode(), digest_size=8).hexdigest()


def array_digest(values) -> str:
    """Stable digest of a numeric sample (dtype + shape + raw bytes).

    Used by campaign manifests and the determinism tests: two samples get
    the same digest iff they are bit-identical arrays, which is exactly
    the "same aggregate regardless of worker count / resume" guarantee.
    """
    import numpy as np

    arr = np.ascontiguousarray(values)
    h = hashlib.blake2b(digest_size=8)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record of one experiment (or raw executor) run."""

    kind: str  # "experiment" | "run" | "campaign" | "verify"
    exp_id: str = ""
    algorithm: str = ""
    # Campaign manifests may carry the experiments' composite (root, side,
    # salt) seed tuples (JSON round-trips them as lists); explicit
    # SeedSequence/Generator seeds are recorded via
    # :func:`repro.randomness.seed_provenance` as an entropy/spawn-key
    # mapping or the "<generator>" marker.
    seed: int | tuple[int, ...] | list[int] | dict | str | None = None
    scale: str = ""
    side: int | None = None
    elapsed_seconds: float | None = None
    result_digest: str = ""
    argv: list[str] = field(default_factory=list)
    python: str = ""
    package_version: str = __version__
    schema_version: int = MANIFEST_SCHEMA_VERSION
    created: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("experiment", "run", "campaign", "verify"):
            raise DimensionError(
                "manifest kind must be 'experiment', 'run', 'campaign', or "
                f"'verify', got {self.kind!r}"
            )
        if not self.created:
            self.created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        if not self.python:
            self.python = sys.version.split()[0]

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def write_manifest(path: str | Path, manifest: RunManifest) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: str | Path) -> RunManifest:
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise DimensionError(f"unsupported manifest schema version {version!r}")
    return RunManifest(**data)


def replay_command(manifest: RunManifest) -> str:
    """The CLI invocation that reproduces the manifest's result digest."""
    if manifest.kind != "experiment" or not manifest.exp_id:
        raise DimensionError("replay_command needs an experiment manifest")
    parts = ["repro", "run", manifest.exp_id]
    if manifest.scale:
        parts += ["--scale", manifest.scale]
    if manifest.seed is not None:
        parts += ["--seed", str(manifest.seed)]
    return " ".join(parts)
