"""Set-up probe: what a fresh process pays before an in-process workload.

    python3 -m pb.probe <workload>

Imports the program and runs the workload's ``prepare`` (schedule builds
and compiles), then exits; the benchmark times it from spawn to exit.
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    from pb import certify_sweep, moments, sort_paper

    modules = {m.NAME: m for m in (sort_paper, moments, certify_sweep)}
    if len(argv) != 1 or argv[0] not in modules:
        print(f"usage: python3 -m pb.probe {{{','.join(modules)}}}", file=sys.stderr)
        return 2
    modules[argv[0]].prepare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
