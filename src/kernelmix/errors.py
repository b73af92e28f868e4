"""Exception types shared across the package, and the integer and positive-number rules.

The CLI maps these onto its stable exit codes: DataError -> 2,
ConfigError -> 3, ModelIntegrityError -> 4.
"""

import numpy as np


class KernelmixError(Exception):
    """Base class for package errors."""


class DataError(KernelmixError):
    """Malformed or unusable input data (parse failures, empty classes, ...)."""


class ConfigError(KernelmixError):
    """Invalid configuration or argument values."""


class ModelIntegrityError(KernelmixError):
    """A persisted model failed verification on load."""


def is_integer(value, least: int) -> bool:
    """Whether ``value`` is an int or NumPy integer of at least ``least``; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def is_positive(value) -> bool:
    """Whether the number ``value`` is finite and above 0."""
    return 0 < value < float("inf")  # NaN compares false
