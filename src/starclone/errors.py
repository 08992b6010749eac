"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """A dense request exceeds the qubit cap or the memory estimate."""


class OracleInconsistencyError(RuntimeError):
    """Dense-evolution projections left weight outside the expected states.

    Raised when the evolved state of the star network has support outside
    the four basis states the block decomposition allows; this signals a
    basis-convention bug, not a numerical tolerance issue.
    """


class FormulaInconsistencyError(RuntimeError):
    """A closed-form expression violated one of its own guarantees."""
