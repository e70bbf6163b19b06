"""Exception types shared across the package."""


class LqshiftError(Exception):
    """Base class for errors raised by this package."""


class InstanceFormatError(LqshiftError):
    """An instance document failed structural validation.

    ``issues`` is a list of ``(path, message)`` pairs, where ``path`` is a
    JSON-pointer-style location inside the offending document.
    """

    def __init__(self, issues):
        self.issues = [(str(p), str(m)) for p, m in issues]
        text = "; ".join(f"{p}: {m}" for p, m in self.issues)
        super().__init__(text or "invalid instance document")


class ConvergenceError(LqshiftError):
    """An iterative solver failed to converge.

    ``residual`` carries the last observed residual so callers can report it.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BudgetExceededError(LqshiftError):
    """The binary controls an exact optimum ranges over exceed the budget.

    ``required`` is the control count, an ``int``, or a ``"V**E"`` string
    where the count has too many digits to print.
    """

    def __init__(self, required, budget):
        super().__init__(
            f"the optimum ranges over {required} binary controls, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class ControlFileError(LqshiftError):
    """A control file does not match the instance tree or control set."""


class VertexEnumerationError(LqshiftError):
    """Vertex enumeration of the relaxed control polytope is infeasible."""


class DegenerateDomainError(LqshiftError):
    """Rejection sampling of the relaxed control set keeps almost nothing."""
