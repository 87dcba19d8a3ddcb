"""Exception types shared across the package."""


class InstanceFormatError(ValueError):
    """Malformed instance document: bad schema, duplicate ids, dim mismatch."""


class UnknownIdError(LookupError):
    """An id was requested that the point set / ground set does not contain."""


class MatrixInvariantError(ValueError):
    """A matrix handed to a determinant routine is not symmetric PSD."""


class GuardExceededError(RuntimeError):
    """An enumeration would exceed the combinatorial guard.

    The guard defaults to 10**6 subsets and can be raised or lowered through
    the DETMAX_ORACLE_CAP environment variable.
    """


class PreconditionError(ValueError):
    """Arguments violate a documented precondition of the operation."""


class RejectionSamplingError(RuntimeError):
    """Rejection sampling failed to produce enough vectors within budget."""


class SwapLimitError(RuntimeError):
    """Local search exceeded its hard cap on accepted swaps."""


class InvariantError(RuntimeError):
    """A checked guarantee (size bound, disjointness, ratio sandwich) failed: a detmax bug."""
