"""The benchmark checks itself: its declaration, every workload at a tiny
size (untraced and traced), and that a wrong output is counted."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest
from conftest import ROOT

from pb import certify_sweep, moments, pinned, serve_mixed, sort_paper
from pb.common import E2E_UNITS, Tally
from pb.tracing import Recorder, install

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = (sort_paper, moments, serve_mixed, certify_sweep)


def _declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declaration_matches_the_runner(runner):
    bench = _declaration()
    assert [w["name"] for w in bench["workloads"]] == [m.NAME for m in WORKLOADS]
    assert [m["name"] for m in bench["end_to_end"]] == list(E2E_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(runner.PER_LAYER)
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for metric in bench["end_to_end"]:
        assert metric["unit"] == E2E_UNITS[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert metric["unit"] == runner.PER_LAYER[metric["name"]]
    for metric in metrics:
        assert UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for workload in bench["workloads"]:
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert bench["paths"] == ["perfbench"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to seconds of work."""
    monkeypatch.setattr(sort_paper, "CONFIGS", (("snake_1", 8, 8), ("row_major_row_first", 8, 8)))
    monkeypatch.setattr(sort_paper, "PIN_TRIALS", {8: 4})
    monkeypatch.setattr(moments, "SIDE", 8)
    monkeypatch.setattr(moments, "TRIALS", 400)
    monkeypatch.setattr(moments, "SHARD_SIZE", 100)
    monkeypatch.setattr(moments, "PIN_TRIALS", 600)
    monkeypatch.setattr(serve_mixed, "SIDES", (4, 6))
    monkeypatch.setattr(serve_mixed, "TRIALS", 16)
    monkeypatch.setattr(serve_mixed, "SHARD_SIZE", 8)
    monkeypatch.setattr(certify_sweep, "INSTANCES", (("snake_1", 2), ("odd_even", 4)))
    table = pinned.load()
    small = {
        sort_paper.NAME: sort_paper.pin_entries(),
        moments.NAME: moments.pin_entries(tmp_path / "pin"),
        certify_sweep.NAME: {
            f"{f}@{s}": table[certify_sweep.NAME][f"{f}@{s}"] for f, s in certify_sweep.INSTANCES
        },
    }
    monkeypatch.setattr(pinned, "load", lambda: small)
    return small


@pytest.mark.parametrize("module", WORKLOADS, ids=lambda m: m.NAME)
def test_each_workload_runs_at_a_tiny_size(module, tiny, tmp_path, runner):
    workload = module.Workload(5, tmp_path, ROOT)
    try:
        assert workload.setup() > 0
        plain = Tally()
        workload.measure(0.5, plain)
        workload.verify(plain)
        assert plain.errors == [] and plain.attempted >= 1
        assert plain.rounds >= 1 and plain.trials > 0 and plain.latencies

        rec = Recorder(spool_dir=tmp_path / "spool")
        restore = install(rec)
        traced = Tally()
        try:
            workload.measure(0.5, traced, rec)
        finally:
            restore()
        rec.absorb_spool()
        workload.verify(traced)
        values = runner.layer_values(rec, workload.layer_metrics(rec, traced))
    finally:
        workload.close()
    assert traced.errors == []
    assert set(values) == set(runner.PER_LAYER)
    if module is moments:
        assert values["backends.detect.calls"] == 0
        assert values["campaign.shards"] == traced.rounds * 5 * 4
    if module is sort_paper:
        assert values["backends.detect_s"] > 0 and values["backends.step_s"] > 0
    if module is certify_sweep:
        assert values["semantics.matrices"] == traced.rounds * (2**4 + 2**4)


def test_a_planted_wrong_digest_raises_the_error_rate(tiny, tmp_path, monkeypatch):
    planted = {k: dict(v) for k, v in tiny.items()}
    planted[sort_paper.NAME]["snake_1@8"] = "0" * 16
    monkeypatch.setattr(pinned, "load", lambda: planted)
    workload = sort_paper.Workload(5, tmp_path, ROOT)
    tally = Tally()
    workload.measure(0.0, tally)
    workload.verify(tally)
    assert tally.failed == 1 and tally.error_rate > 0
    assert "snake_1@8" in tally.errors[0]


def test_the_runner_prints_every_metric(runner, capsys):
    for trace, expected in ((0, E2E_UNITS), (1, runner.PER_LAYER)):
        assert runner.main(
            ["--workload", "certify-sweep", "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(expected)
        assert all(m["unit"] == expected[k] for k, m in result["metrics"].items())
        if trace == 0:
            printed = {line.split()[0] for line in lines[:-1]}
            assert set(E2E_UNITS) | {"error_rate"} <= printed


def test_the_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
