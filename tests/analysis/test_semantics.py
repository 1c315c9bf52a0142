"""The 0-1 sortedness certifier: verdicts, witnesses, caching, and scope.

Acceptance properties from the ISSUE:

* every paper algorithm plus shearsort and odd_even is CERTIFIED by the
  exhaustive 0-1 check on the declared ``certified_sides``;
* ``row_major_no_wrap`` is REFUTED with a minimal 0-1 witness;
* at least one mutant that the legacy classifier calls ``"semantic"``
  (zero schedule-check violations) is *statically* refuted;
* repeated certification is a cache hit with zero interpreter steps;
* the certifier never imports an executor (the import-graph test in
  ``test_mutant_classification.py`` covers the package; the subprocess
  test here checks the loaded-module set at certification time).
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.schedule_check import check_schedule
from repro.analysis.semantics import (
    EXHAUSTIVE_CELL_LIMIT,
    CertificateStore,
    SortednessCertificate,
    certificate_key,
    certified_schedule_report,
    certify_sortedness,
    peek_certificate,
    schedule_digest,
    semantics_cache_clear,
    semantics_cache_info,
    step_budget,
)
from repro.backends.base import resolve_step_cap
from repro.core.schedule import PairOp, Schedule, Step
from repro.errors import AnalysisError
from repro.schedules import (
    available_families,
    build_row_major_no_wrap,
    build_schedule,
    get_family,
    mesh_shape,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    semantics_cache_clear()
    yield
    semantics_cache_clear()


def certify_family(name: str, side: int, **kwargs) -> SortednessCertificate:
    schedule = build_schedule(name, side, seed=0)
    rows, cols = mesh_shape(schedule, side)
    return certify_sortedness(schedule, rows, cols, **kwargs)


class TestCertifiedFamilies:
    @pytest.mark.parametrize("name", [n for n in available_families()])
    def test_declared_certified_sides_are_exhaustively_proven(self, name):
        family = get_family(name)
        for side in family.certified_sides:
            cert = certify_family(name, side)
            assert cert.certified, (name, side, cert.describe())
            assert cert.mode == "exhaustive"
            assert cert.inputs_checked == 2 ** (cert.rows * cert.cols)
            assert cert.step_bound is not None and cert.step_bound >= 1

    def test_paper_shearsort_and_odd_even_declare_sides_2_and_4(self):
        # The ISSUE's headline claim, pinned against registry drift.
        for name in (
            "row_major_row_first", "row_major_col_first",
            "snake_1", "snake_2", "snake_3", "shearsort", "odd_even",
        ):
            assert {2, 4} <= set(get_family(name).certified_sides), name

    def test_generated_families_declare_no_certified_sides(self):
        assert get_family("random_network").certified_sides == ()
        assert get_family("row_major_no_wrap").certified_sides == ()

    def test_certified_bound_is_minimal_and_within_the_runtime_cap(self):
        cert = certify_family("snake_1", 4)
        schedule = build_schedule("snake_1", 4)
        assert cert.step_bound == 27  # pinned: the minimal simultaneous bound
        assert cert.step_bound <= resolve_step_cap(schedule, 4, 4)

    def test_odd_even_bound_equals_array_length(self):
        # Classic odd-even transposition: N steps on a 1 x N array (N = 2
        # degenerates to a single comparator, sorted after step 1).
        for side, expected in ((2, 1), (4, 4), (8, 8)):
            cert = certify_family("odd_even", side)
            assert cert.certified and cert.step_bound == expected, cert.describe()


class TestRefutation:
    def test_no_wrap_is_refuted_with_minimal_witness(self):
        for side in (2, 4):
            cert = certify_sortedness(build_row_major_no_wrap(), side)
            assert cert.refuted, cert.describe()
            assert cert.witness is not None
            assert cert.witness_ones == 2  # global minimum over all witnesses
            arr = cert.witness_array
            assert arr.shape == (side, side)
            assert set(np.unique(arr)) <= {0, 1}

    def test_witness_never_sorts_under_its_own_schedule(self):
        # Replay the witness through the pure interpreter via a fresh
        # certify call on the same schedule: the refutation is stable.
        cert = certify_sortedness(build_row_major_no_wrap(), 4)
        again = certify_sortedness(build_row_major_no_wrap(), 4, use_cache=False)
        assert again.refuted and again.witness == cert.witness

    def test_structural_schedule_is_unknown_not_refuted(self):
        # 0-1 model checking presumes a well-formed oblivious network.
        broken = Schedule(
            name="overlap",
            steps=(Step(PairOp((0, 0), (0, 1)), PairOp((0, 1), (0, 2))),),
            order="row_major",
            metadata={"topology": "linear"},
        )
        cert = certify_sortedness(broken, 1, 3)
        assert cert.verdict == "UNKNOWN"
        assert "0-1" in cert.reason


class TestModesAndLimits:
    def test_exhaustive_beyond_cell_limit_is_a_usage_error(self):
        schedule = build_schedule("snake_1", 5)
        with pytest.raises(AnalysisError):
            certify_sortedness(schedule, 5, 5, mode="exhaustive")
        assert 5 * 5 > EXHAUSTIVE_CELL_LIMIT

    def test_sampling_never_certifies(self):
        cert = certify_family("shearsort", 6)
        assert cert.mode == "sampled"
        assert cert.verdict == "UNKNOWN"
        assert "certify" in cert.reason

    def test_sampling_still_refutes_with_witness(self):
        cert = certify_sortedness(build_row_major_no_wrap(), 6)
        assert cert.mode == "sampled"
        assert cert.refuted and cert.witness is not None
        assert cert.sample_seed == 0

    def test_step_budget_mirrors_the_runtime_cap(self):
        # step_budget is deliberately a *duplicated* pure formula (the
        # analysis layer may not import repro.backends); this test is the
        # contract that keeps the two in lock-step.
        for name in available_families(include_pathological=True):
            for side in (2, 4, 6, 8):
                if get_family(name).requires_even_side and side % 2:
                    continue
                schedule = build_schedule(name, side, seed=0)
                rows, cols = mesh_shape(schedule, side)
                assert step_budget(schedule, rows, cols) == resolve_step_cap(
                    schedule, rows, cols
                ), (name, side)


class TestCaching:
    def test_repeat_certification_is_a_cache_hit_with_zero_steps(self):
        first = certify_family("snake_1", 4)
        steps_after_miss = semantics_cache_info().interpreter_steps
        assert steps_after_miss > 0
        second = certify_family("snake_1", 4)
        info = semantics_cache_info()
        assert second == first
        assert info.hits == 1 and info.misses == 1
        assert info.interpreter_steps == steps_after_miss  # zero new steps

    def test_digest_is_value_identity_not_name_identity(self):
        a = build_schedule("snake_1", 4)
        b = Schedule(
            name="renamed", steps=a.steps, order=a.order, metadata=a.metadata
        )
        assert schedule_digest(a, 4, 4) == schedule_digest(b, 4, 4)
        assert schedule_digest(a, 4, 4) != schedule_digest(a, 2, 2)

    def test_store_roundtrip_across_cache_clear(self, tmp_path):
        store = CertificateStore(tmp_path)
        first = certify_family("snake_1", 4, store=store)
        assert len(list(store.keys())) == 1
        semantics_cache_clear()
        second = certify_family("snake_1", 4, store=store)
        info = semantics_cache_info()
        assert second == first
        assert info.interpreter_steps == 0  # disk hit, no recompute

    def test_corrupt_store_entry_is_quarantined_and_recomputed(self, tmp_path):
        store = CertificateStore(tmp_path)
        first = certify_family("snake_1", 4, store=store)
        [key] = store.keys()
        store.path_for(key).write_text("{not json")
        semantics_cache_clear()
        second = certify_family("snake_1", 4, store=store)
        assert second == first
        assert store.path_for(key).exists()  # rewritten after recompute
        quarantined = list(tmp_path.rglob("*.quarantine"))
        assert len(quarantined) == 1

    def test_peek_never_computes(self):
        schedule = build_schedule("snake_1", 4)
        assert peek_certificate(schedule, 4, 4) is None
        assert semantics_cache_info().interpreter_steps == 0
        cert = certify_sortedness(schedule, 4, 4)
        assert peek_certificate(schedule, 4, 4) == cert

    def test_certificate_json_roundtrip(self):
        cert = certify_sortedness(build_row_major_no_wrap(), 4)
        blob = json.loads(json.dumps(cert.to_json()))
        assert SortednessCertificate.from_json(blob) == cert

    def test_certificate_key_separates_analysis_parameters(self):
        digest = schedule_digest(build_schedule("snake_1", 4), 4, 4)
        a = certificate_key(digest, {"mode": "auto"})
        b = certificate_key(digest, {"mode": "sampled", "sample_seed": 1})
        assert a != b and a.startswith(digest) and b.startswith(digest)


class TestReportIntegration:
    def test_certified_schedule_report_attaches_semantics(self):
        schedule = build_schedule("snake_1", 4)
        report = certified_schedule_report(schedule, 4, 4)
        assert report.ok
        assert report.semantics is not None and report.semantics.certified
        assert "semantics" in report.describe()
        assert report.to_json()["semantics"]["verdict"] == "CERTIFIED"

    def test_plain_report_has_null_semantics(self):
        report = check_schedule(build_schedule("snake_1", 4), 4)
        assert report.semantics is None
        assert report.to_json()["semantics"] is None


class TestExecutorFreedom:
    def test_certifier_loads_no_executor_modules(self):
        code = (
            "import sys, repro\n"
            "before = {m for m in sys.modules if m.startswith('repro')}\n"
            "from repro.analysis.semantics import certify_sortedness\n"
            "from repro.schedules import build_schedule, build_row_major_no_wrap\n"
            "assert certify_sortedness(build_schedule('snake_1', 4), 4, 4).certified\n"
            "assert certify_sortedness(build_row_major_no_wrap(), 4, 4).refuted\n"
            "prefixes = ('repro.backends', 'repro.core.reference', 'repro.mesh')\n"
            "new = [m for m in sys.modules\n"
            "       if m.startswith(prefixes) and m not in before]\n"
            "assert not new, f'certifier loaded executors: {new}'\n"
            "print('EXECUTOR-FREE')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert "EXECUTOR-FREE" in result.stdout


class TestLinearWiring:
    def test_linear_interpreter_matches_line_op_and_pair_op_forms(self):
        # odd_even written with LineOps and the same network written as
        # explicit PairOps must produce identical certificates (modulo
        # digest): the interpreter treats the IR uniformly.
        n = 4
        pair_steps = (
            Step(*(PairOp((0, p), (0, p + 1)) for p in range(0, n - 1, 2))),
            Step(*(PairOp((0, p), (0, p + 1)) for p in range(1, n - 1, 2))),
        )
        pair_form = Schedule(
            name="odd_even_pairs",
            steps=pair_steps,
            order="row_major",
            metadata={"topology": "linear"},
        )
        line_form = build_schedule("odd_even", n)
        a = certify_sortedness(line_form, 1, n)
        b = certify_sortedness(pair_form, 1, n)
        assert a.certified and b.certified
        assert a.step_bound == b.step_bound == n
