"""repro — reproduction of Savari's five two-dimensional bubble sorting algorithms.

This package implements, end to end, the system studied in

    S. A. Savari, "Average Case Analysis of Five Two-Dimensional Bubble
    Sorting Algorithms", SPAA 1993.

Subpackages
-----------
``repro.core``
    The five mesh bubble-sort algorithms, their comparator-schedule IR,
    target orders, and the pure-Python reference machine.
``repro.schedules``
    The schedule-family registry: the five algorithms, shearsort, the
    wire-less counterexample, linear odd-even and random networks.
``repro.backends``
    One driver and compile cache over the vectorized, reference, mesh and
    rect executors.
``repro.linear``
    The 1-D odd-even transposition step and its Section 1 bounds.
``repro.mesh``
    Processor-level mesh-of-processors simulator with wrap-around wires.
``repro.zeroone``
    The 0-1 analysis machinery: threshold matrices, column weights, the
    Z/Y potential trackers, and programmatic lemma checks.
``repro.theory``
    Exact (Fraction-valued) moments, variances, and per-theorem bounds.
``repro.experiments``
    Seeded Monte-Carlo harness reproducing every theorem of the paper.
``repro.viz``
    ASCII rendering of grids, traces, and series.
"""

from repro._version import __version__
from repro.core import ALGORITHM_NAMES, get_algorithm, sort_grid
from repro.errors import ReproError
from repro.randomness import random_permutation_grid, random_zero_one_grid

__all__ = [
    "__version__",
    "ALGORITHM_NAMES",
    "get_algorithm",
    "sort_grid",
    "ReproError",
    "random_permutation_grid",
    "random_zero_one_grid",
]
