"""Exception types shared across the package."""

from __future__ import annotations


class InvalidFlowError(ValueError):
    """A trade-flow tensor entry is negative, non-finite, or a self-flow.

    ``index`` is the offending ``(exporter, importer, good)`` cell.
    """

    def __init__(self, message, index=None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


class SchemaError(ValueError):
    """Tabular input does not match the expected schema.

    ``rows`` holds ``(row_number, problem)`` pairs, 1-based including the
    header line.
    """

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = list(rows)


class EmptyMatrixError(ValueError):
    """An all-zero matrix where a nonzero one is required."""

    def __init__(self, message, which=None):
        super().__init__(message)
        self.which = which


class RankDeficiencyError(ValueError):
    """Vectors expected to be linearly independent are not."""

    def __init__(self, message, numerical_rank=None, expected=None):
        super().__init__(message)
        self.numerical_rank = numerical_rank
        self.expected = expected


class OutsideConeError(ValueError):
    """A target vector lies outside the relevant polyhedral cone.

    ``certificate`` carries the dual coefficients (or a separating vector)
    that witness the verdict.
    """

    def __init__(self, message, certificate=None, dual_index=None):
        super().__init__(message)
        self.certificate = certificate
        self.dual_index = dual_index


class DegenerateTargetError(ValueError):
    """The target sits on the boundary of the cone: some dual product is zero
    where a strictly positive one is required."""

    def __init__(self, message, dual_index=None, certificate=None):
        super().__init__(message)
        self.dual_index = dual_index
        self.certificate = certificate


class InfeasibleError(ValueError):
    """No admissible solution exists; ``detail`` names the blocking element."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class DivisionGuardError(ValueError):
    """A denominator that must stay positive vanished (zero demand cost or a
    zero row sum). ``agent`` is the offending column index."""

    def __init__(self, message, agent=None):
        super().__init__(message)
        self.agent = agent


class PreconditionError(ValueError):
    """A named precondition of an operation is violated."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class NonConvergenceError(RuntimeError):
    """A computation ended without an answer it can vouch for.

    The price solver raises it when its last stage hit its iteration cap
    or stalled and the Newton steps that follow did not finish it, when its
    point violates the equilibrium inequalities, when no good clears there,
    or when the aggregate cost identity fails. The structure tools raise it
    when a linear program fails or its answer, a factor or an eigen-system
    misses its residual check.
    """

    def __init__(self, message, residual=None, iterations=None, epsilon=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.epsilon = epsilon
