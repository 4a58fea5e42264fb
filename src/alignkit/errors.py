"""Exception hierarchy, warnings and the record base shared across the
toolkit.

Each error carries the exit code the CLI ends with when it stops on it:
ConfigError -> 1, DataFormatError (and subclasses) -> 2, NumericError -> 3.
"""

import sys
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


# Set by cli.main(): from then on the first warning configures logging as
# `WARNING: message` lines on stderr. Until then, logging is left to the
# program that imported the toolkit.
command_run = False


def warn(logger: str, msg: str, *args) -> None:
    """logging.getLogger(logger).warning(msg, *args). logging is imported
    only here, since most runs never warn."""
    import logging

    if command_run:
        logging.basicConfig(
            level=logging.WARNING, format="%(levelname)s: %(message)s", stream=sys.stderr
        )
    logging.getLogger(logger).warning(msg, *args)


class Record:
    """A plain class with the __eq__, __hash__ and __repr__ a dataclass
    would have, over its fields: the __slots__ of its classes, base class
    first. A record equals only one of its own class. A mutable record sets
    __hash__ to None; nothing assigns to the others' fields once they are
    built. (dataclasses imports inspect and builds each class's methods
    from source as its module loads, which costs a numpy-free command more
    than its own work on a small input.)"""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())
        )

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
