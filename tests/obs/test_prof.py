"""Span profiler: folding, ambient install, grafting, serialization."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backends import run_sort
from repro.core.runner import resolve_algorithm
from repro.errors import DimensionError
from repro.obs import (
    Span,
    SpanProfiler,
    aggregate_spans,
    current_profiler,
    render_spans,
    span,
    span_from_dict,
    use_profiler,
)
from repro.obs.prof import _NULL_SPAN


def perm_grid(side: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(side * side).reshape(side, side)


class TestSpanRecording:
    def test_nested_tree(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        assert [root.name for root in prof.roots] == ["outer"]
        (outer,) = prof.roots
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.count == 1
        assert outer.wall >= outer.children[0].wall >= 0

    def test_repeated_siblings_fold(self):
        prof = SpanProfiler()
        with prof.span("loop"):
            for _ in range(100):
                with prof.span("body"):
                    pass
        (loop,) = prof.roots
        assert len(loop.children) == 1
        assert loop.children[0].count == 100

    def test_meta_kept_from_first_invocation(self):
        prof = SpanProfiler()
        with prof.span("run", algorithm="snake_1"):
            pass
        with prof.span("run", algorithm="other"):
            pass
        (run,) = prof.roots
        assert run.count == 2
        assert run.meta["algorithm"] == "snake_1"

    def test_empty_name_rejected(self):
        with pytest.raises(DimensionError):
            SpanProfiler().span("")

    def test_self_wall(self):
        node = Span(name="a", wall=2.0, children=[Span(name="b", wall=0.5)])
        assert node.self_wall() == pytest.approx(1.5)


class TestAmbientInstall:
    def test_module_span_records_on_installed_profiler(self):
        prof = SpanProfiler()
        with use_profiler(prof):
            assert current_profiler() is prof
            with span("phase"):
                pass
        assert current_profiler() is None
        assert [root.name for root in prof.roots] == ["phase"]

    def test_no_profiler_returns_shared_null_singleton(self):
        assert current_profiler() is None
        ctx_a = span("anything")
        ctx_b = span("other")
        assert ctx_a is _NULL_SPAN
        assert ctx_b is _NULL_SPAN
        with ctx_a:
            pass  # harmless no-op

    def test_driver_emits_compile_and_kernel_spans(self):
        prof = SpanProfiler()
        schedule = resolve_algorithm("snake_1")
        with use_profiler(prof):
            run_sort("vectorized", schedule, perm_grid(6))
        totals = aggregate_spans(prof.roots)
        assert {"run", "compile", "kernel"} <= totals.keys()
        assert totals["run"]["count"] == 1
        assert totals["run"]["wall"] >= totals["kernel"]["wall"]

    def test_kernel_nests_step_detect_and_replay_once_per_stride(self):
        prof = SpanProfiler()
        schedule = resolve_algorithm("snake_1")
        grids = np.stack([perm_grid(6, seed) for seed in range(8)])
        with use_profiler(prof):
            outcome = run_sort("vectorized", schedule, grids)
        kernel = prof.roots[0].child("kernel")
        assert {c.name for c in kernel.children} == {"step", "detect", "replay"}
        step, detect = kernel.child("step"), kernel.child("detect")
        slowest = int(outcome.steps.max())
        # One step/detect span per 4-step stride, not one per step.
        assert step.count == detect.count == -(-slowest // 4)
        assert 1 <= kernel.child("replay").count <= step.count
        assert kernel.wall >= step.wall + detect.wall

    def test_observed_run_opens_spans_per_step(self):
        from repro.obs.events import Observer

        prof = SpanProfiler()
        schedule = resolve_algorithm("snake_1")
        with use_profiler(prof):
            outcome = run_sort("vectorized", schedule, perm_grid(6), observer=Observer())
        kernel = prof.roots[0].child("kernel")
        assert kernel.child("step").count == int(outcome.steps)
        assert kernel.child("detect").count == int(outcome.steps)
        assert kernel.child("replay") is None

    def test_uninstrumented_run_untouched_without_profiler(self):
        schedule = resolve_algorithm("snake_1")
        outcome = run_sort("vectorized", schedule, perm_grid(6))
        assert outcome.completed


class TestSerialization:
    def make_tree(self) -> Span:
        prof = SpanProfiler()
        with prof.span("shard", index=3):
            with prof.span("run"):
                with prof.span("kernel"):
                    pass
        return prof.roots[0]

    def test_dict_roundtrip(self):
        tree = self.make_tree()
        rebuilt = span_from_dict(tree.as_dict())
        assert rebuilt.as_dict() == tree.as_dict()

    def test_bad_dict_rejected(self):
        with pytest.raises(DimensionError):
            span_from_dict({"wall": 1.0})

    def test_merge_requires_same_name(self):
        with pytest.raises(DimensionError):
            Span(name="a").merge(Span(name="b"))

    def test_graft_folds_same_named_trees(self):
        prof = SpanProfiler()
        for index in range(3):
            prof.graft(self.make_tree().as_dict())
        (shard,) = prof.roots
        assert shard.count == 3
        assert shard.child("run").child("kernel").count == 3
        # First-seen meta wins, mirroring span() folding.
        assert shard.meta["index"] == 3

    def test_graft_under_open_span(self):
        prof = SpanProfiler()
        with prof.span("campaign"):
            prof.graft(self.make_tree())
        (campaign,) = prof.roots
        assert [child.name for child in campaign.children] == ["shard"]


class TestAllocTracing:
    def test_opt_in_records_peak(self):
        was_tracing = tracemalloc.is_tracing()
        prof = SpanProfiler(trace_alloc=True)
        try:
            with use_profiler(prof), prof.span("alloc"):
                buf = np.zeros(64 * 1024, dtype=np.int64)
                del buf
        finally:
            prof.close()
        assert prof.roots[0].alloc_peak is not None
        assert prof.roots[0].alloc_peak > 0
        # close() must restore the prior tracemalloc state.
        assert tracemalloc.is_tracing() == was_tracing

    def test_default_records_no_alloc(self):
        prof = SpanProfiler()
        with prof.span("alloc"):
            pass
        assert prof.roots[0].alloc_peak is None


class TestReporting:
    def test_aggregate_sums_same_name_across_depths(self):
        prof = SpanProfiler()
        with prof.span("a"):
            with prof.span("b"):
                pass
        with prof.span("b"):
            pass
        totals = aggregate_spans(prof.tree())  # dict form accepted too
        assert totals["b"]["count"] == 2

    def test_render_includes_counts(self):
        prof = SpanProfiler()
        with prof.span("outer"):
            for _ in range(2):
                with prof.span("inner"):
                    pass
        text = render_spans(prof.roots)
        assert "outer" in text
        assert "x2" in text
        assert render_spans([]) == "(no spans recorded)"
