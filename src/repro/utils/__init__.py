"""Small shared utilities: validation, timing, deterministic RNG helpers."""

from repro.utils.ragged import csr_ptr, ragged
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_positive_int,
    check_power_of_two,
    check_rhs,
    check_square_sparse,
    is_power_of_two,
    require_finite,
)

__all__ = [
    "Timer",
    "check_positive_int",
    "check_power_of_two",
    "check_rhs",
    "check_square_sparse",
    "csr_ptr",
    "is_power_of_two",
    "ragged",
    "require_finite",
]
