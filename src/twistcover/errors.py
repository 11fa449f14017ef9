"""Error taxonomy.

DomainError covers violated input contracts (bad n, slope outside the
certified interval, malformed rationals); the CLI maps it to exit code 1.
NumericsError covers runtime numerical failures (lost convergence, residuals
above tolerance); the CLI maps it to exit code 2.
"""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class SlopeOutOfRange(DomainError):
    """Requested slope p/q is not strictly inside (0, 4)."""


class NumericsError(RuntimeError):
    """A numerical check failed at the requested tolerance."""


class NonConvergence(NumericsError):
    """Iteration cap hit before the tolerance was reached."""


class OffDiagonalTooLarge(NumericsError):
    """Longitude matrix is not diagonal at the claimed solution."""


class RelatorNotCentral(NumericsError):
    """Lifted relator is not a deck transformation; (s, t) is not a solution."""


class LongitudeOmegaNonzero(NumericsError):
    """Lifted longitude left the expected sheet of the cover."""


class CertificateFailed(NumericsError):
    """Final cover element of x^p L^q is not the identity at tolerance."""
