"""The repository benchmark: four workloads timed from outside the program.

Each workload module (``sort_paper``, ``moments``, ``serve_mixed``,
``certify_sweep``) calls the public functions of the ``repro`` package and
never edits them.  Per-layer numbers come from :mod:`pb.tracing`, which
wraps the program's public entry points only for the traced run.  See
``perfbench/README.md`` for the workload definitions and metric meanings.
"""
