"""Exception types shared across the toolkit.

Each class carries the CLI exit code it maps to: 1 for bad input or
configuration, 3 for an unresolvable degeneracy, 4 for a numerical failure.
"""

from __future__ import annotations

from numbers import Integral


class MoqaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class DimensionMismatchError(MoqaError):
    """Operands disagree on objective count, domain size, or vector length."""

    exit_code = 1


class InstanceFormatError(MoqaError):
    """An instance table or its serialized form violates the format contract."""

    exit_code = 1


class InvalidLinearizationError(MoqaError):
    """A weight vector is not a valid convex-combination weighting."""

    exit_code = 1


class InvalidInitialValuesError(MoqaError):
    """Initial-Hamiltonian penalty values violate their constraints."""

    exit_code = 1


class HermiticityError(MoqaError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NormalizationError(MoqaError):
    """A state vector expected to have unit norm does not."""


class DegenerateGapError(MoqaError):
    """A computation requires a nondegenerate minimum but found a tie."""


class NumericalRangeError(MoqaError):
    """A result lies outside the range of float64."""


class UnresolvableDegeneracyError(MoqaError):
    """Tied minimizers have identical objective rows; no reweighting splits them."""

    exit_code = 3


class ResolutionFailureError(MoqaError):
    """The tie-breaking search exhausted its candidates without success."""

    def __init__(self, message: str, tried: tuple = ()):
        super().__init__(message)
        self.tried = tried


class GenerationError(MoqaError):
    """Benchmark-instance generation could not satisfy its constraints."""

    exit_code = 1


class ConfigurationError(MoqaError):
    """A required parameter is missing or out of range."""

    exit_code = 1


def is_integer(value) -> bool:
    """Python and NumPy integers count; bools, floats and strings do not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_count(name: str, value, minimum: int) -> int:
    """Return value as an int; refuse non-integers, bools and values < minimum."""
    if not is_integer(value):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)
