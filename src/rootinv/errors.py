"""Exception types shared across the toolkit."""


class RootinvError(Exception):
    """Base class for all toolkit errors."""


class UsageError(RootinvError):
    """Command-line input is malformed."""


class InvalidRank(RootinvError):
    """Requested rank is outside the admissible range for the family."""


class DimensionMismatch(RootinvError):
    """Vector/matrix dimensions are incompatible with the target object."""


class RingMismatch(RootinvError):
    """Laurent polynomials live over different exponent lattices."""


class InfiniteQuotient(RootinvError):
    """A cokernel that was expected to be finite has positive rank."""


class NotInvolution(RootinvError):
    """Cohomology of a cyclic group of order 2 requires an order-2 element."""


class OrbitCapExceeded(RootinvError):
    """Orbit BFS grew beyond the configured cap."""


class GroupCapExceeded(RootinvError):
    """Group enumeration would exceed the configured cap."""


class BoxCapExceeded(RootinvError):
    """Fundamental-box scan would enumerate more points than allowed."""


class FrontierCapExceeded(RootinvError):
    """Completion-procedure frontier exceeded its divergence guard."""


class FiberCapExceeded(RootinvError):
    """Factorization-fiber enumeration exceeded the configured cap."""
