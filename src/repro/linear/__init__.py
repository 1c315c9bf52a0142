"""1-D odd-even transposition sort substrate (paper Section 1)."""

from repro.linear.analysis import (
    average_lower_order,
    average_lower_smallest_element,
    expected_min_displacement,
    worst_case_upper,
)
from repro.linear.odd_even import transposition_step, worst_case_input

__all__ = [
    "average_lower_order",
    "average_lower_smallest_element",
    "expected_min_displacement",
    "worst_case_upper",
    "transposition_step",
    "worst_case_input",
]
