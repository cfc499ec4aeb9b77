"""Exception types shared across the package."""


class IsospecError(Exception):
    """Base class for all domain errors raised by isospec."""


class DimensionMismatch(IsospecError):
    """Matrix or vector dimensions are inconsistent with the problem size."""


class UnknownName(IsospecError):
    """No builtin problem registered under the requested name."""


class NonFiniteState(IsospecError):
    """Integration produced NaN or infinity (pathological scaling)."""


class OutOfDomain(IsospecError):
    """Evaluation point lies outside [0, pi]."""


class WindowTooCoarse(IsospecError):
    """The scan cannot separate or account for every eigenvalue in the window."""


class NotAnEigenvalue(IsospecError):
    """Characteristic matrix is not rank deficient at the requested point."""


class ConditionViolated(IsospecError):
    """A hypothesis fails: a boundary pair's, or the positivity 1 + c*||phi||^2 > 0 of an entry."""


class IndexOutOfRange(IsospecError):
    """Perturbation entry addresses a nonexistent eigenvalue or branch."""


class SingularResolvent(IsospecError):
    """I + G(x)C is numerically singular at some node."""


class GridMismatch(IsospecError):
    """Sampled data does not live on the expected grid."""


class GridTooSmall(IsospecError):
    """Too few nodes for the requested finite-difference stencil."""
