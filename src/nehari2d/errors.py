"""Exception types shared across the package."""


class InvalidSpec(ValueError):
    """Grid specification violates an invariant (node counts, extents)."""


class GridMismatch(ValueError):
    """Operands live on different grids."""


class InvalidParams(ValueError):
    """Problem parameters violate an invariant (p > 2, 0 < gamma < p - 2)."""


class InvalidRange(ValueError):
    """Bad sampling range for coefficient certification."""


class NonFiniteSample(ValueError):
    """A coefficient profile returned a non-finite value on a sample."""


class DegenerateInput(ValueError):
    """An operation required a nontrivial field but received a zero one."""


class InadmissibleLambda(ValueError):
    """Linear coefficients exceed the spectral admissibility threshold."""


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class NotProjectable(RuntimeError):
    """A state admits no constraint-set rescaling (no fiber critical point)."""


class CoercivityViolation(RuntimeError):
    """A constrained iterate broke the theoretical lower energy bound."""


class ParseError(ValueError):
    """Malformed line in a configuration document."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(ValueError):
    """A configuration key carries an invalid value."""

    def __init__(self, key, reason):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason
