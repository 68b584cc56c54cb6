"""Exception types shared across the library.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, a failed spectral-gap certificate exits 3, and verification
failures exit 1.
"""

__all__ = [
    "RimlabError",
    "DimensionMismatchError",
    "DomainError",
    "SpectrumError",
    "GridAlignmentError",
    "SupportRangeError",
    "ParameterError",
    "CertificateError",
    "ContractionViolationError",
    "InstabilityError",
    "ValidationError",
    "ConfigError",
]


class RimlabError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(RimlabError):
    """Vector length does not match the spectrum / projection layout."""


class DomainError(RimlabError):
    """Argument outside the mathematical domain of an operation."""


class SpectrumError(RimlabError):
    """Invalid eigenvalue data (non-positive or decreasing rates)."""


class GridAlignmentError(RimlabError):
    """A time is not a node of the stored uniform grid."""


class SupportRangeError(RimlabError):
    """Requested evaluation or shift leaves the stored support."""


class ParameterError(RimlabError):
    """Parameter outside its admissible range (e.g. k not in (0,1))."""


class CertificateError(RimlabError):
    """Spectral gap condition fails; carries the violated margin."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class ContractionViolationError(RimlabError):
    """Measured Picard ratios exceed the certified contraction factor."""


class InstabilityError(RimlabError):
    """Non-finite state encountered during time integration."""


class ValidationError(RimlabError):
    """Constructed object violates a declared invariant."""


class ConfigError(RimlabError):
    """Run configuration is invalid; message names the offending field."""
