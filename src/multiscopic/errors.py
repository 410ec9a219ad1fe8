"""Exception types shared across the package, and check_size, the one test
of an array size against NumPy's limit."""

import math

import numpy as np


class MultiscopicError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(MultiscopicError):
    """A file does not conform to its declared on-disk format."""


class UnsupportedError(MultiscopicError):
    """The file is well formed but uses a feature this package does not handle."""


class InputError(MultiscopicError):
    """Caller passed inconsistent or out-of-contract arguments."""


class SpecError(MultiscopicError):
    """A scene specification is internally inconsistent or degenerate."""


class TrainingError(MultiscopicError):
    """Training aborted, e.g. because the loss became non-finite."""


def check_size(what: str, shape: tuple[int, ...], dtype) -> None:
    """Raise InputError naming what where NumPy would refuse an array of
    shape and dtype as larger than any array, np.iinfo(np.intp).max bytes;
    a smaller one that does not fit in memory still raises MemoryError."""
    limit = np.iinfo(np.intp).max
    if math.prod(shape) * np.dtype(dtype).itemsize > limit:
        raise InputError(f"{what}, {shape} {np.dtype(dtype)}, exceeds NumPy's {limit}-byte limit")
