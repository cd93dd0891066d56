"""Shared exception types, and the positive-setting check that raises one."""

import math


class DataFormatError(ValueError):
    """Fatal problem with input data or configuration (CLI exit code 2)."""


def check_positive(name: str, value) -> None:
    """Raise DataFormatError naming the setting ``name`` unless ``value`` is
    finite and positive; NaN fails both comparisons, so it is refused too."""
    if not -math.inf < value < math.inf:
        raise DataFormatError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise DataFormatError(f"{name} must be positive, got {value}")
