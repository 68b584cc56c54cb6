"""Exception types shared across the library, one per exit outcome.

The CLI maps these onto its exit-code contract: an invalid run (any
``RimlabError`` that is none of the three below: a value outside its
domain, a mismatched shape, an off-grid time) exits 2, as does an invalid
configuration (``ConfigError``); a failed spectral-gap certificate or a
contraction the solver cannot reach (``CertificateError``) exits 3; and a
non-finite state (``InstabilityError``) exits 1, like a failed check.
"""

__all__ = ["RimlabError", "ConfigError", "CertificateError", "InstabilityError"]


class RimlabError(Exception):
    """Base class for all library errors; raised itself for an invalid run."""


class ConfigError(RimlabError):
    """Run configuration is invalid; message names the offending field."""


class CertificateError(RimlabError):
    """Spectral gap condition fails, or Picard ratios exceed its contraction factor."""


class InstabilityError(RimlabError):
    """Non-finite state encountered during time integration."""
