"""Exception types shared across the toolkit, and the integer rule that
raises them."""

import operator


class NocError(Exception):
    """Base class for all nocplace errors (CLI maps these to exit code 1)."""


class OutOfBoundsError(NocError):
    """A coordinate lies outside the grid, a router has no such port, or an
    assignment is incomplete."""


class InfeasibleError(NocError):
    """Requested counts or canonical family cannot be realized on the grid."""


class InvalidTrafficError(NocError):
    """Probabilities or rates in a traffic specification are inconsistent."""


class InvalidConfigError(NocError):
    """A simulation configuration or a model option, such as the
    waiting-time mode, violates its preconditions."""


class NoCachesError(NocError):
    """Operation requires at least one cache in the placement."""


class DimensionMismatchError(NocError):
    """Vector/matrix arguments disagree on channel count."""


class UnstableError(NocError):
    """Offered load saturates a channel (utilization >= 1)."""

    def __init__(self, message: str, router=None, channel=None):
        super().__init__(message)
        self.router = router
        self.channel = channel


class NonConvergentError(NocError):
    """The contention fixed point failed to converge within its budget."""


class BudgetExceededError(NocError):
    """Search space exceeds the configured evaluation budget."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


def as_int(value, error: type[NocError], what: str) -> int:
    """``value`` as an int. A bool, a float or a string raises ``error``:
    sizes, counts and budgets size arrays, slices and key caches, where
    they would fail far from here."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{what} must be an integer, got {value!r}")
