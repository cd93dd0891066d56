"""Shared exception types."""


class DataFormatError(ValueError):
    """Fatal problem with input data or configuration (CLI exit code 2)."""


class InvariantError(RuntimeError):
    """An internal self-check failed (CLI exit code 3)."""
