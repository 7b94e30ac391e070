"""Error taxonomy shared by every module.

Two families matter to callers: ``UserInputError`` covers bad configuration
or malformed input data (the CLI maps these to exit code 2), and
``NumericalFailure`` covers computations that could not be completed at the
requested settings (exit code 3).
"""

from __future__ import annotations

__all__ = [
    "PoolregError",
    "UserInputError",
    "NumericalFailure",
    "NonPositiveBandwidth",
    "EmptyDataset",
    "OrphanPool",
    "NonFiniteValue",
    "UnsupportedKernel",
    "TooFewRecords",
    "SingularLocalSystem",
    "NoValidBandwidth",
    "DivergentMoment",
    "SingularMomentMatrix",
    "IncompleteCurve",
]


class PoolregError(Exception):
    """Base class for every error raised by this package."""


class UserInputError(PoolregError):
    """Invalid configuration or input data supplied by the caller."""


class NumericalFailure(PoolregError):
    """A computation failed at the requested settings."""


class NonPositiveBandwidth(UserInputError):
    """Bandwidth must be strictly positive."""


class EmptyDataset(UserInputError):
    """A dataset with no records was supplied."""


class OrphanPool(UserInputError):
    """A pool id appears in one input table but not the other."""


class NonFiniteValue(UserInputError):
    """A NaN or infinity appeared where a finite number is required."""


class UnsupportedKernel(UserInputError):
    """The requested kernel is not valid for this operation."""


class TooFewRecords(UserInputError):
    """Not enough records to perform the requested selection."""


class SingularLocalSystem(NumericalFailure):
    """The local weighted least squares system is singular or nearly so."""


class NoValidBandwidth(NumericalFailure):
    """Every candidate bandwidth failed during cross-validation."""


class DivergentMoment(NumericalFailure):
    """A covariate moment does not exist or cannot be integrated."""


class SingularMomentMatrix(NumericalFailure):
    """A kernel moment matrix could not be inverted."""


class IncompleteCurve(NumericalFailure):
    """A fitted value was required at a point where the fit failed."""
