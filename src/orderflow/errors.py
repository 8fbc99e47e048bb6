"""Exception hierarchy.

Every domain failure raises a subclass of :class:`OrderflowError`, so callers
(and the CLI, which maps them to exit code 1) can catch one base type.
"""


class OrderflowError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicateValue(OrderflowError):
    """Two items of an order-pattern input compare equal."""


class LengthTooSmall(OrderflowError):
    """A length is too short for the operation: a restriction, a push-down, a census."""


class LengthMismatch(OrderflowError):
    """Pattern lengths, or positions within one, do not fit together."""


class CapExceeded(OrderflowError):
    """An enumeration or construction would exceed a configured cap."""


class EndpointMismatch(OrderflowError):
    """Paths or profiles were concatenated at mismatched vertices."""


class NotALoop(OrderflowError):
    """A loop-only operation received an open path."""


class DimensionMismatch(OrderflowError):
    """Drift profiles of different pattern lengths were composed."""


class NotAFlow(OrderflowError):
    """A distribution violates the conservation condition."""


class NotFaceSubgraph(OrderflowError):
    """A subgraph has an edge lying on no loop."""


class NotStronglyConnected(OrderflowError):
    """An operation requiring one strongly connected piece got several."""


class NotRealizable(OrderflowError):
    """The support face of a flow drifts, so no measure-preserving map exists."""


class DriftObstruction(OrderflowError):
    """Loop synthesis failed because the subgraph drifts."""


class CyclicObstruction(OrderflowError):
    """No cyclic ranking is consistent with the loop's pattern windows."""


class InvariantViolation(OrderflowError):
    """A construction produced a result that fails its own guarantee."""


class IncompatibleSequence(OrderflowError):
    """Consecutive distributions in a tower fail the pushforward identity."""


class UnknownBuiltin(OrderflowError):
    """No built-in interval map has the requested name."""


class NotPiecewiseAffine(OrderflowError):
    """Exact subdivision requires all pieces of the map to be affine."""


class SamplesDiscarded(OrderflowError):
    """Every sampled orbit was discarded, so there is no histogram to report."""


class DegenerateTie(OrderflowError):
    """Two iterates coincide on a set of positive measure."""


class EscapesInterval(OrderflowError):
    """An iterate of a map leaves [0, 1), so the map is not a self-map there."""


class FormatError(OrderflowError):
    """A serialized artifact violates its schema."""
