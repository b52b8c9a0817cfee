"""Exception types shared across the package."""


class VasrpError(Exception):
    """Base class for package-specific errors."""


class InsufficientDataError(VasrpError, ValueError):
    """Too few observations for the requested fit."""


class DegenerateDataError(VasrpError, ValueError):
    """All observations identical; scale parameters would collapse to zero."""


class InfeasibleMomentsError(VasrpError, ValueError):
    """No Beta distribution has the requested mean/std (std^2 >= mean*(1-mean))."""


class EmptyStratumError(VasrpError, ValueError):
    """A sampling stratum contains no records."""


class ZeroVarianceError(VasrpError, ValueError):
    """Correlation/regression input has no variance."""
