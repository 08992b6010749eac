"""Exception types shared across the package; ``__all__`` is their public list."""

__all__ = ["CapacityError", "OracleInconsistencyError", "FormulaInconsistencyError"]


class CapacityError(RuntimeError):
    """A dense request exceeds the qubit cap or the memory estimate."""


class OracleInconsistencyError(RuntimeError):
    """Dense-evolution projections left weight outside the expected states.

    Raised when the evolved state of the star network has support outside
    the four basis states the block decomposition allows.  That signals a
    basis-convention bug, or a point beyond the dense route's resolution:
    at |lam| of about 1e12 the eigendecomposition's rounding, multiplied by
    the phase scale, exceeds the unitarity tolerance.
    """


class FormulaInconsistencyError(RuntimeError):
    """A closed-form expression violated one of its own guarantees."""
