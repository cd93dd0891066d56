"""Shared exception types."""


class DataFormatError(ValueError):
    """Fatal problem with input data or configuration (CLI exit code 2)."""
