"""Exception types shared across the library."""


class SboptError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SboptError):
    """Operands have incompatible shapes."""


class NonComposableProx(SboptError):
    """The (f2, g2) pair has no supported closed-form combined prox."""


class InvalidErrorBound(SboptError):
    """Error-bound parameters outside the admissible range (alpha >= 1, rho > 0)."""


class MissingLowerOpt(SboptError):
    """An operation needs the lower-level optimal value but it was never computed."""


class NonFiniteIterate(SboptError):
    """A solver produced NaN or Inf. Carries the partial trace for diagnosis."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InvalidStrongConvexity(SboptError):
    """Strong convexity parameter is nonpositive or exceeds the smoothness constant."""


class InvalidLadder(SboptError):
    """Adaptive ladder parameters violate nu > 1, eta > 1, or nu > eta**(alpha-1),
    or the ladder cannot reach its stop accuracy within its stage cap."""


class BudgetOverflow(SboptError, ValueError):
    """An iteration budget that floating point cannot hold.  It is a
    ValueError too, as the budget functions' other bad arguments are."""


class UnsupportedTerm(SboptError):
    """A term kind does not support the requested oracle (e.g. subgradient of an indicator)."""


class InfeasibleStart(SboptError):
    """Initial point lies outside the projection domain."""


class ParseError(SboptError):
    """Malformed input file. Carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class RelaxationUnreachable(SboptError):
    """Penalty escalation hit its cap before meeting the relaxed feasibility target."""


class Nonconvergence(SboptError):
    """A reference computation hit its cap or failed its certificate. Carries the best value found."""

    def __init__(self, message, best_value=None, certificate=None):
        super().__init__(message)
        self.best_value = best_value
        self.certificate = certificate


class ConfigError(SboptError):
    """Invalid experiment configuration. Carries the offending field path."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
