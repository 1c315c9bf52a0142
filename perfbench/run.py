"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sort-paper --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with the
program untouched.  With ``--trace 1`` it measures the workload twice for
half the time each, first untouched and then with the per-layer wrappers
of ``pb.tracing`` installed, and reports the per-layer metrics of the
second pass plus the tracing overhead between the two.  Every output is
checked; the last line of standard output is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics and units, in print order.
PER_LAYER = {
    "backends.step.calls": "count",
    "backends.step_s": "s",
    "backends.step.cell_compares_computed": "count",
    "backends.step.bytes_computed": "bytes",
    "backends.detect.calls": "count",
    "backends.detect_s": "s",
    "backends.useful_ratio": "ratio",
    "backends.prepare_s": "s",
    "backends.compile.calls": "count",
    "backends.compile.misses": "count",
    "backends.compile_s": "s",
    "randomness.draw_s": "s",
    "zeroone.statistic_s": "s",
    "campaign.shards": "count",
    "campaign.shard_s": "s",
    "campaign.checkpoint.appends": "count",
    "campaign.checkpoint.bytes": "bytes",
    "campaign.checkpoint_s": "s",
    "campaign.merge_s": "s",
    "store.get.calls": "count",
    "store.hit_ratio": "ratio",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.bytes_written": "bytes",
    "service.queue.submit_s": "s",
    "service.queue.submit_first_quartile_s": "s",
    "service.queue.submit_last_quartile_s": "s",
    "service.queue.claim_s": "s",
    "service.queue.empty_polls": "count",
    "service.queue.update_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.lock.wait_s": "s",
    "service.coalesced": "count",
    "service.cache_hits": "count",
    "semantics.interpreter_steps": "count",
    "semantics.matrices": "count",
    "semantics.certify_s": "s",
    "workload.working_set_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}

#: Recorder counters reported under another name.
_RENAMED = {
    "campaign.shards": "campaign.shard.calls",
    "campaign.checkpoint.appends": "campaign.checkpoint.calls",
}


def _workloads() -> dict:
    from pb import certify_sweep, moments, serve_mixed, sort_paper

    return {m.NAME: m for m in (sort_paper, moments, serve_mixed, certify_sweep)}


def layer_values(rec, specific: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from a traced pass (0 for layers it never
    reached), with the workload's own derived values laid over."""
    out = {}
    for name in PER_LAYER:
        out[name] = float(rec.get(_RENAMED.get(name, name)))
    out["workload.working_set_bytes"] = float(
        rec.peaks.get("workload.working_set_bytes", 0)
    )
    gets = rec.get("store.get.calls")
    out["store.hit_ratio"] = rec.get("store.get.hits") / gets if gets else 0.0
    out.update(specific)
    return out


def _self_peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _run(module, args, work: Path) -> tuple[dict[str, float], object, dict]:
    from pb.common import RssSampler, Tally, end_to_end
    from pb.tracing import Recorder, install

    workload = module.Workload(args.seed, work, ROOT)
    try:
        setup_s = workload.setup()
        if not args.trace:
            tally = Tally()
            with RssSampler() as rss:
                workload.measure(args.seconds, tally)
            workload.verify(tally)
            peak = max(rss.peak_mib, _self_peak_mib())
            return end_to_end(tally, setup_s, peak), tally, {}
        plain = Tally()
        workload.measure(args.seconds / 2, plain)
        rec = Recorder(spool_dir=work / "spool")
        restore = install(rec)
        traced = Tally()
        try:
            workload.measure(args.seconds / 2, traced, rec)
        finally:
            restore()
        rec.absorb_spool()
        workload.verify(traced)
        values = layer_values(rec, workload.layer_metrics(rec, traced))
        # Fold the untraced pass's checks into the reported tally.
        traced.attempted += plain.attempted
        traced.failed += plain.failed
        traced.errors += plain.errors
        primary = module.PRIMARY
        values["trace.overhead_ratio"] = plain.rates()[primary] / traced.rates()[primary] - 1.0
        values["error_rate"] = traced.error_rate
        return values, traced, {"setup_s": setup_s}
    finally:
        workload.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    modules = _workloads()
    if args.workload not in modules:
        parser.error(f"--workload must be one of {', '.join(modules)}")
    module = modules[args.workload]

    from pb.common import E2E_UNITS, environment

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    try:
        values, tally, extra = _run(module, args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    units = PER_LAYER if args.trace else E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  rounds {tally.rounds}  "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, value in {**extra, **values}.items():
        print(f"  {name:40s} {value:.6g} {units.get(name, E2E_UNITS.get(name, ''))}")
    if not args.trace:
        print(f"  {'error_rate':40s} {tally.error_rate:.6g} ratio")
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
