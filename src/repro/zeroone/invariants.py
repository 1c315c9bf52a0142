"""Programmatic checks of the paper's lemmas on concrete 0-1 traces.

Each ``check_*`` function takes matrices observed around one step of a run
and returns a list of human-readable violation strings — empty when the
lemma holds.  The test suite applies them to randomized traces (and
hypothesis-generated 0-1 matrices), which pins the implementation of the
algorithms to the combinatorial structure the paper's analysis relies on:
if a schedule were transcribed wrongly, these lemmas would fail long before
any step-count statistic looked suspicious.

Conventions: 0-based indices; "paper-odd" columns are 0-based 0, 2, 4, ....
All functions expect *even* side unless stated otherwise, matching the
sections of the paper they come from.
"""

from __future__ import annotations

import numpy as np

from repro.core.orders import validate_grid
from repro.zeroone.trackers import (
    z1_statistic,
    z2_statistic,
    z3_statistic,
    z4_statistic,
    y1_statistic,
    y2_statistic,
    y3_statistic,
)
from repro.zeroone.weights import column_weights, column_zeros

__all__ = [
    "check_lemma1_column_sort",
    "check_lemma2_odd_row_sort",
    "check_lemma3_even_row_sort",
    "check_lemmas_5_to_8",
    "check_lemma10",
    "z_sequence",
    "y_sequence",
]


def check_lemma1_column_sort(before: np.ndarray, after: np.ndarray) -> list[str]:
    """Lemma 1: a column sort step changes no column's weight."""
    violations = []
    wb, wa = column_weights(before), column_weights(after)
    if wb.shape != wa.shape:
        return [f"shape mismatch {wb.shape} vs {wa.shape}"]
    bad = np.nonzero(wb != wa)[-1]
    for k in np.atleast_1d(bad):
        violations.append(
            f"column {int(k)}: weight changed {int(wb[..., k])} -> {int(wa[..., k])}"
        )
    return violations


def check_lemma2_odd_row_sort(before: np.ndarray, after: np.ndarray) -> list[str]:
    """Lemma 2: after an odd row sort, for each j (paper 1-based):

    * ``w_{2j}(t)   >= w_{2j-1}(t-1)`` — the ones of the odd columns travel
      to the even columns, and
    * ``z_{2j-1}(t) >= z_{2j}(t-1)`` — the zeroes of the even columns travel
      to the odd columns;

    plus the cellwise travel facts ``A_{2j}^h = 0  =>  B_{2j-1}^h = 0`` and
    ``A_{2j-1}^h = 1  =>  B_{2j}^h = 1``.
    """
    violations = []
    b, a = np.asarray(before), np.asarray(after)
    side = validate_grid(b)
    wb, zb = column_weights(b), column_zeros(b)
    wa, za = column_weights(a), column_zeros(a)
    for j in range(side // 2):
        odd_col, even_col = 2 * j, 2 * j + 1  # 0-based pair (paper 2j-1, 2j)
        if int(wa[even_col]) < int(wb[odd_col]):
            violations.append(
                f"w_{{{even_col + 1}}}(t)={int(wa[even_col])} < "
                f"w_{{{odd_col + 1}}}(t-1)={int(wb[odd_col])}"
            )
        if int(za[odd_col]) < int(zb[even_col]):
            violations.append(
                f"z_{{{odd_col + 1}}}(t)={int(za[odd_col])} < "
                f"z_{{{even_col + 1}}}(t-1)={int(zb[even_col])}"
            )
        # cellwise travel
        zero_travel = (b[:, even_col] == 0) & (a[:, odd_col] != 0)
        one_travel = (b[:, odd_col] == 1) & (a[:, even_col] != 1)
        for h in np.nonzero(zero_travel)[0]:
            violations.append(f"zero at ({int(h)}, {even_col}) did not travel left")
        for h in np.nonzero(one_travel)[0]:
            violations.append(f"one at ({int(h)}, {odd_col}) did not travel right")
    return violations


def check_lemma3_even_row_sort(before: np.ndarray, after: np.ndarray) -> list[str]:
    """Lemma 3: after an even row sort with wrap-around comparisons:

    * interior: ``w_{2j+1}(t) >= w_{2j}(t-1)`` and ``z_{2j}(t) >= z_{2j+1}(t-1)``
      for paper j in 1..n-1;
    * boundary: ``w_1(t) >= w_{2n}(t-1) - 1`` and ``z_{2n}(t) >= z_1(t-1) - 1``;
    * cellwise: ``D_1^{h+1} = 0 => E_{2n}^h = 0`` and ``D_{2n}^h = 1 => E_1^{h+1} = 1``.
    """
    violations = []
    b, a = np.asarray(before), np.asarray(after)
    side = validate_grid(b)
    wb, zb = column_weights(b), column_zeros(b)
    wa, za = column_weights(a), column_zeros(a)
    for j in range(1, side // 2):
        even_col, next_odd = 2 * j - 1, 2 * j  # 0-based (paper 2j, 2j+1)
        if int(wa[next_odd]) < int(wb[even_col]):
            violations.append(
                f"w_{{{next_odd + 1}}}(t)={int(wa[next_odd])} < "
                f"w_{{{even_col + 1}}}(t-1)={int(wb[even_col])}"
            )
        if int(za[even_col]) < int(zb[next_odd]):
            violations.append(
                f"z_{{{even_col + 1}}}(t)={int(za[even_col])} < "
                f"z_{{{next_odd + 1}}}(t-1)={int(zb[next_odd])}"
            )
    last = side - 1
    if int(wa[0]) < int(wb[last]) - 1:
        violations.append(f"w_1(t)={int(wa[0])} < w_last(t-1)-1={int(wb[last]) - 1}")
    if int(za[last]) < int(zb[0]) - 1:
        violations.append(f"z_last(t)={int(za[last])} < z_1(t-1)-1={int(zb[0]) - 1}")
    zero_travel = (b[1:, 0] == 0) & (a[:-1, last] != 0)
    one_travel = (b[:-1, last] == 1) & (a[1:, 0] != 1)
    for h in np.nonzero(zero_travel)[0]:
        violations.append(f"zero at ({int(h) + 1}, 0) did not wrap to ({int(h)}, {last})")
    for h in np.nonzero(one_travel)[0]:
        violations.append(f"one at ({int(h)}, {last}) did not wrap to ({int(h) + 1}, 0)")
    return violations


def z_sequence(trace: list[np.ndarray]) -> list[int]:
    """Z statistics along an S1-style trace.

    ``trace`` lists the grid *after* steps 1, 2, 3, ... (as produced by
    :func:`repro.backends.iter_run`); entry ``4i`` of the result is
    ``Z1(i)``, entry ``4i+1`` is ``Z2(i)``, etc.
    """
    stats = (z1_statistic, z2_statistic, z3_statistic, z4_statistic)
    return [int(stats[idx % 4](g)) for idx, g in enumerate(trace)]


def y_sequence(trace: list[np.ndarray]) -> list[int]:
    """Y statistics along an S2-style trace (Y1 after steps 1 and 2)."""
    stats = (y1_statistic, y1_statistic, y2_statistic, y3_statistic)
    return [int(stats[idx % 4](g)) for idx, g in enumerate(trace)]


def check_lemmas_5_to_8(trace: list[np.ndarray]) -> list[str]:
    """Lemmas 5-8 on an S1 trace: Z2 >= Z1, Z3 >= Z2, Z4 >= Z3 - 1,
    and Z1(i+1) >= Z4(i)."""
    seq = z_sequence(trace)
    names = ("Z1", "Z2", "Z3", "Z4")
    violations = []
    for idx in range(1, len(seq)):
        next_stat = idx % 4
        allowed = 1 if next_stat == 3 else 0  # only Z3 -> Z4 may lose one
        if seq[idx] < seq[idx - 1] - allowed:
            violations.append(
                f"step {idx + 1}: {names[next_stat]}={seq[idx]} < "
                f"{names[(idx - 1) % 4]}={seq[idx - 1]}"
                + (f" - {allowed}" if allowed else "")
            )
    return violations


def check_lemma10(trace: list[np.ndarray]) -> list[str]:
    """Lemma 10 on an S2 trace: Y2 >= Y1, Y3 >= Y2 - 1, Y1(i+1) >= Y3(i).

    ``trace`` lists grids after steps 1, 2, 3, ...; Y1 is read after step
    4i+1 (and is unchanged by step 4i+2), Y2 after 4i+3, Y3 after 4i+4.
    """
    violations = []
    # Build the Y-checkpoint sequence: Y1(0), Y2(0), Y3(0), Y1(1), ...
    checkpoints: list[tuple[str, int]] = []
    for idx, grid in enumerate(trace):
        phase = idx % 4  # grid after step idx+1
        if phase == 0:
            checkpoints.append(("Y1", int(y1_statistic(grid))))
        elif phase == 2:
            checkpoints.append(("Y2", int(y2_statistic(grid))))
        elif phase == 3:
            checkpoints.append(("Y3", int(y3_statistic(grid))))
    for k in range(1, len(checkpoints)):
        name_prev, v_prev = checkpoints[k - 1]
        name_cur, v_cur = checkpoints[k]
        allowed = 1 if name_cur == "Y3" else 0
        if v_cur < v_prev - allowed:
            violations.append(
                f"checkpoint {k}: {name_cur}={v_cur} < {name_prev}={v_prev}"
                + (f" - {allowed}" if allowed else "")
            )
    return violations
