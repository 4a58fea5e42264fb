"""Exception hierarchy shared across the toolkit.

Each error carries the exit code the CLI ends with when it stops on it:
ConfigError -> 1, DataFormatError (and subclasses) -> 2, NumericError -> 3.
"""

from typing import Sequence


class AlignkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code: int


class ConfigError(AlignkitError):
    """Invalid configuration value (bad iteration count, tension, ...)."""

    exit_code = 1


class DataFormatError(AlignkitError):
    """Malformed input data; message names the offending line or record."""

    exit_code = 2


class DegeneratePairError(DataFormatError):
    """A sentence pair with an empty source or target side."""


class DimensionMismatchError(DataFormatError):
    """Two alignments over different sentence dimensions were combined."""


class NumericError(AlignkitError):
    """A numeric failure (zero normalizer, non-finite value) during training."""

    exit_code = 3


def trailer_error(message: str, line_numbers: Sequence[int], row: int = 0) -> DataFormatError:
    """The error for trailer row `row` of a model file. line_numbers holds
    the model line of each trailer row, or nothing when they are unknown."""
    if row < len(line_numbers):
        message = f"model line {line_numbers[row]}: {message}"
    return DataFormatError(message)
