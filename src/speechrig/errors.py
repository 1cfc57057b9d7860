"""Exception types shared across the pipeline.

Exit codes mirror the CLI contract: 2 usage, 3 data, 4 numeric.
"""


class RigPipelineError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 1


class UsageError(RigPipelineError):
    """A command line the parser rejects; ``text`` is argparse's report of it."""

    exit_code = 2

    def __init__(self, message, text):
        super().__init__(message)
        self.text = text


class DataError(RigPipelineError):
    """Malformed or inconsistent input data (files, shapes, labels)."""

    exit_code = 3


class NumericError(RigPipelineError):
    """Non-finite values or diverging computations."""

    exit_code = 4


class MapError(DataError):
    """Controller map schema violation.

    ``code`` is a short machine-readable tag, e.g. ``duplicate-index``,
    ``asymmetric-pair``, ``missing-eye-role``.
    """

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class FeatureFileError(DataError):
    """Unreadable or inconsistent feature file (bad magic, truncation, NaN)."""


class DegenerateDataError(DataError):
    """Training data that cannot support the requested fit."""
