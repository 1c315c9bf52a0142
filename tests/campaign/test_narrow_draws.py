"""Sort-step sampling gives the same values whatever the integer type of its draws.

The kernels only compare cells, so permutations drawn in
:func:`repro.randomness.permutation_dtype` must give the same
``values_digest`` as the sampler's ``int64`` draws for every family,
in-process and in campaign mode, and the campaign fingerprint must not
mention the dtype.  Statistic sampling draws ``int64``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.experiments import montecarlo, sample
from repro.randomness import permutation_dtype
from repro.schedules import available_families, build_schedule, mesh_shape
from repro.zeroone.weights import m_statistic


class DrawSpy:
    """Record the dtype of every permutation draw the sampler makes;
    ``narrow=True`` makes every draw in :func:`permutation_dtype`."""

    def __init__(self, monkeypatch, *, narrow: bool = False):
        self.dtypes: list[np.dtype] = []
        original = montecarlo.random_permutation_mesh

        def spy(shape, *args, **kwargs):
            if narrow:
                kwargs["dtype"] = permutation_dtype(shape[0] * shape[1])
            out = original(shape, *args, **kwargs)
            self.dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(montecarlo, "random_permutation_mesh", spy)


def algorithm_at(family: str) -> str:
    """The family's spec string (the random network needs a seed)."""
    return f"{family}[seed=5]" if family == "random_network" else family


CASES = [
    (family, side)
    for family in available_families()
    for side in (4, 8, 16)
]


@pytest.mark.parametrize(("family", "side"), CASES)
@pytest.mark.parametrize("mode", ["in-process", "campaign"])
def test_narrow_and_int64_draws_agree(family, side, mode, monkeypatch):
    algorithm = algorithm_at(family)
    kwargs = {"side": side, "trials": 12, "seed": (3, side)}
    if mode == "campaign":
        kwargs["shard_size"] = 5
    wide_spy = DrawSpy(monkeypatch)
    wide = sample(algorithm, **kwargs)
    assert wide.meta["mode"] == mode
    assert set(wide_spy.dtypes) == {np.dtype(np.int64)}

    narrow_spy = DrawSpy(monkeypatch, narrow=True)
    narrow = sample(algorithm, **kwargs)
    schedule = build_schedule(family, side, seed=5)
    rows, cols = mesh_shape(schedule, side)
    assert set(narrow_spy.dtypes) == {permutation_dtype(rows * cols)}
    assert narrow.values_digest == wide.values_digest
    np.testing.assert_array_equal(narrow.values, wide.values)
    assert narrow.values.dtype == np.int64


def test_paper_sides_fit_int16():
    assert permutation_dtype(32 * 32) == np.int16
    assert permutation_dtype(64 * 64) == np.int16
    assert permutation_dtype(8 * 8) == np.int8


def test_fingerprint_is_unchanged():
    """Pinned from before narrow draws existed: dtype is not campaign identity."""
    spec = CampaignSpec(algorithm="snake_1", side=8, trials=48, seed=7, shard_size=12)
    assert spec.fingerprint == "1f83e435e9cb3b1c"
    statistic = CampaignSpec(
        algorithm="snake_1", side=8, trials=48, seed=7, shard_size=12,
        kind="statistic", statistic=m_statistic, input_kind="permutation",
    )
    assert statistic.fingerprint == "d81d84e58aa8f38e"


@pytest.mark.parametrize("mode", ["in-process", "campaign"])
def test_statistic_permutation_draws_stay_int64(mode, monkeypatch):
    spy = DrawSpy(monkeypatch)
    seen: list[np.dtype] = []

    def statistic(grids):
        seen.append(grids.dtype)
        return m_statistic(grids)

    kwargs = {"shard_size": 4} if mode == "campaign" else {}
    sample(
        "snake_1", side=8, trials=8, kind="statistic", statistic=statistic,
        input_kind="permutation", seed=2, **kwargs,
    )
    assert set(spy.dtypes) == {np.dtype(np.int64)}
    assert set(seen) == {np.dtype(np.int64)}
