#!/usr/bin/env python
"""Race the five bubble sorts against shearsort across mesh sizes.

Run:  python examples/algorithm_race.py [--trials T] [--sides 8,12,16,20]

Reproduces the paper's headline as a chart: every 2-D bubble sort needs
Θ(N) steps on average (curves grow linearly in N), while shearsort needs
only Θ(sqrt(N) log N) — the gap widens as the mesh grows.
"""

from __future__ import annotations

import argparse

from repro.core import ALGORITHM_NAMES
from repro.experiments import sample
from repro.viz import ascii_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=48)
    parser.add_argument("--sides", default="8,12,16,20")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (campaign mode when != 1)")
    args = parser.parse_args()
    sides = [int(s) for s in args.sides.split(",")]

    contenders = list(ALGORITHM_NAMES) + ["shearsort"]
    means: dict[str, list[float]] = {name: [] for name in contenders}
    print(f"{'algorithm':22s} " + " ".join(f"side={s:<4d}" for s in sides))
    for name in contenders:
        for side in sides:
            # "shearsort" is a sided registry family: side= picks the instance.
            result = sample(name, side=side, trials=args.trials,
                            seed=(2026, side), workers=args.workers)
            means[name].append(result.stats.mean)
        print(f"{name:22s} " + " ".join(f"{m:8.1f}" for m in means[name]))

    print("\nMean steps vs N (watch shearsort flatten away from the pack):")
    n_values = [s * s for s in sides]
    print(ascii_series(n_values, means))


if __name__ == "__main__":
    main()
