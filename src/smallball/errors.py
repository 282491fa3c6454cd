"""Exception types shared across the library."""


class SmallBallError(Exception):
    """Base class for library-specific failures."""


class EmbeddingFailureError(SmallBallError):
    """Circulant embedding produced eigenvalues negative beyond tolerance."""


class InfeasibleCertificateError(SmallBallError):
    """No (p, N, delta, I) tuple satisfies the regime constraint.

    Carries the tightest violated constraint so callers can report why.
    """

    def __init__(self, message, tightest=None):
        super().__init__(message)
        self.tightest = tightest


class EpsilonTooLargeError(SmallBallError):
    """The radius is outside the invertible range of the variance profile."""


class InvalidComparisonError(SmallBallError):
    """Certificate and estimate are not comparable (grid or norm mismatch)."""


class ConfigError(SmallBallError):
    """Run configuration failed schema validation.

    ``pointer`` is a JSON-pointer-style path to the offending key.
    """

    def __init__(self, pointer, message):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer
        self.reason = message
