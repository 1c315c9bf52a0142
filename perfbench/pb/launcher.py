"""Start one ``repro serve`` daemon for the benchmark.

    python3 -m pb.launcher --ready FILE [--trace-out FILE] -- <repro serve args>

The launcher imports the serve command, optionally installs the per-layer
wrappers of :mod:`pb.tracing`, writes ``--ready`` (so the benchmark can
time daemon start-up), then runs ``serve_main``.  When the daemon exits
(after the SIGTERM drain) the recorder's snapshot goes to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: python3 -m pb.launcher --ready FILE [--trace-out FILE] -- ARGS",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="pb.launcher")
    parser.add_argument("--ready", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])

    from repro.service.cli import serve_main

    recorder = restore = None
    if args.trace_out is not None:
        from pb.tracing import Recorder, install

        recorder = Recorder()
        restore = install(recorder)
    Path(args.ready).write_text(str(os.getpid()), encoding="ascii")
    try:
        return serve_main(argv[split + 1 :])
    finally:
        if restore is not None:
            restore()
            tmp = Path(args.trace_out + ".tmp")
            tmp.write_text(json.dumps(recorder.snapshot()), encoding="utf-8")
            os.replace(tmp, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
