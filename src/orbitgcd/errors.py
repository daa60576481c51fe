"""Exception types shared across the package."""


class OrbitgcdError(Exception):
    """Base class for all library errors."""


class DomainError(OrbitgcdError, ValueError):
    """Input outside an operation's mathematical domain (zero where nonzero
    is required, composite where a prime is required, and so on)."""


class HypothesisViolationError(OrbitgcdError):
    """A run-level hypothesis does not hold (e.g. the target value is
    exceptional for the map, or the two maps have different degrees)."""


class BudgetExceededError(OrbitgcdError):
    """A configured resource budget ran out before the computation finished.

    Carries whatever partial result was available so callers can decide
    whether to retry with a larger budget.
    """

    def __init__(self, message, *, partial=None, digits=None, steps=None):
        super().__init__(message)
        self.partial = partial
        self.digits = digits
        self.steps = steps


class PartialFactorizationError(BudgetExceededError):
    """Factoring ran out of budget; ``partial`` holds the prime factors
    found so far (proven below psi_13 ~ 3.3e24, BPSW-probable at or above)
    and ``cofactor`` the remaining (composite) part."""

    def __init__(self, message, *, partial=None, cofactor=None):
        super().__init__(message, partial=partial)
        self.cofactor = cofactor


class IndeterminateError(OrbitgcdError):
    """A decision procedure could not certify either outcome within budget.

    Deliberately distinct from returning False: callers must treat this as
    "unknown", never as a negative answer.
    """
