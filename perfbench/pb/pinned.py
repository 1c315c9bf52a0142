"""Pinned expected outputs (``pinned.json``) and the check against them.

The digests are the program's outputs at the commit that defined the
benchmark, for fixed seeds; a change that alters any sampled value (a
different draw order, a wrong kernel) fails the check.  Regenerate with
``python3 -m pb.pin`` only when a change is meant to alter values.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from pb.common import Tally

PINNED_PATH = Path(__file__).with_name("pinned.json")


def load() -> dict[str, dict[str, Any]]:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def check(workload: str, actual: dict[str, Any], tally: Tally) -> None:
    """One checked operation per pinned entry of ``workload``."""
    for key, want in sorted(load()[workload].items()):
        got = actual.get(key)
        tally.check(
            got == want,
            f"{workload} pinned {key}: got {got!r}, want {want!r}",
            measured=False,
        )
