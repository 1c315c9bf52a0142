"""Regenerate ``pinned.json`` from the program in this checkout.

    PYTHONPATH=src:perfbench python3 -m pb.pin
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from pb import certify_sweep, moments, sort_paper
from pb.pinned import PINNED_PATH


def main() -> None:
    with tempfile.TemporaryDirectory() as checkpoints:
        table = {
            sort_paper.NAME: sort_paper.pin_entries(),
            moments.NAME: moments.pin_entries(Path(checkpoints)),
            certify_sweep.NAME: certify_sweep.pin_entries(),
        }
    PINNED_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
