"""Exception types shared across the package.

Every package error is a `Nehari2dError`.  The command line reports one as
`label: message` on stderr and exits with its `exit_status`; README.md
tabulates both for every class.  Each class also keeps the builtin base
(ValueError or RuntimeError) that callers may catch instead.
"""


class Nehari2dError(Exception):
    """Base of every package error."""

    exit_status = 1
    label = "error"


class InvalidSpec(Nehari2dError, ValueError):
    """Grid specification violates an invariant (node counts, extents)."""

    label = "invalid grid"


class GridMismatch(Nehari2dError, ValueError):
    """Operands live on different grids, or a state array has the wrong
    shape."""

    label = "grid mismatch"


class InvalidParams(Nehari2dError, ValueError):
    """Problem or coefficient parameters violate an invariant (p > 2,
    0 < gamma < p - 2, nu in (0, 1] or mu1)."""

    label = "invalid parameters"


class InvalidState(Nehari2dError, ValueError):
    """A field or state is non-finite, a field dump is malformed, or a
    fiber point is not finite and positive."""

    label = "invalid state"


class InvalidRange(Nehari2dError, ValueError):
    """Bad sampling range for coefficient certification."""

    label = "invalid range"


class NonFiniteSample(Nehari2dError, ValueError):
    """A coefficient profile returned a non-finite value on a sample."""

    label = "non-finite profile"


class DegenerateInput(Nehari2dError, ValueError):
    """An operation required a nontrivial field but received a zero one."""

    label = "degenerate input"


class InadmissibleLambda(Nehari2dError, ValueError):
    """Linear coefficients exceed the spectral admissibility threshold."""

    exit_status = 3
    label = "inadmissible parameters"


class NoConvergence(Nehari2dError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""

    exit_status = 2
    label = "solver failed to converge"

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class CoercivityViolation(Nehari2dError, RuntimeError):
    """A constrained iterate broke the theoretical lower energy bound."""

    exit_status = 4
    label = "coercivity bound violated"


class ParseError(Nehari2dError, ValueError):
    """Malformed line in a configuration document."""

    label = "bad config"

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(Nehari2dError, ValueError):
    """A configuration value is invalid; `key` names it, as `field` when a
    config section's type raises it and as `section.field` once parsed."""

    label = "bad config"

    def __init__(self, key, reason):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason
