"""Exception types shared across the package."""


class PolynerveError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(PolynerveError, ValueError):
    """Input the package cannot read: JSON off the poset or complex schema,
    a malformed signature, logic spec or relation, or a count out of range."""


# --- poset construction / queries ---------------------------------------


class DuplicateLabel(PolynerveError):
    pass


class CycleDetected(PolynerveError):
    """The raw relation is not antisymmetric after closure."""


class UnknownElement(PolynerveError):
    pass


class EmptyPoset(PolynerveError):
    pass


class NotComparable(PolynerveError):
    pass


class LabelCollision(PolynerveError):
    """A reserved label (e.g. the synthetic top) is already in use."""


class NotRooted(PolynerveError):
    pass


class NotATree(PolynerveError):
    pass


class NotGraded(PolynerveError):
    pass


class IndexOutOfRange(PolynerveError, IndexError):
    pass


# --- morphisms and searches ----------------------------------------------


class DomainNotUpClosed(PolynerveError):
    pass


class TargetNotRooted(PolynerveError):
    pass


class NotComparableSignatures(PolynerveError):
    pass


# --- budgets --------------------------------------------------------------


class BudgetExceeded(PolynerveError):
    """A limit refused the call: ``consumed`` units of ``what`` against
    ``budget``. The fields are the args, so the error pickles and copies."""

    def __init__(self, what: str, consumed: int, budget: int):
        super().__init__(what, consumed, budget)
        self.what, self.consumed, self.budget = what, consumed, budget

    def __str__(self) -> str:
        return f"{self.what}: {self.consumed} over the budget of {self.budget}"


class SearchBudgetExceeded(BudgetExceeded):
    """A backtracking search visited more states than its budget allows."""


class SizeBudgetExceeded(BudgetExceeded):
    """An output (nerve, valuation space, complex) would exceed its size cap."""


# --- logic layer ----------------------------------------------------------


class ForbiddenSignature(PolynerveError):
    """The two-pronged fork is rejected at the logic layer."""


class ParseError(PolynerveError):
    def __init__(self, message: str, position: int):
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} (at position {self.position})"


class UnknownName(PolynerveError):
    pass


class MissingParameter(PolynerveError):
    pass


class PreconditionViolated(PolynerveError):
    pass


class ConstructionPostconditionFailed(PolynerveError):
    """A construction's self-check failed; the output would be unsound."""


# --- geometry ---------------------------------------------------------------


class NotDownwardClosed(PolynerveError):
    pass


class BadIntersection(PolynerveError):
    """Two simplices meet in something other than a common face."""


class AffineDependence(PolynerveError):
    pass


class PointOutsideSupport(PolynerveError):
    pass


class DimensionMismatch(PolynerveError, ValueError):
    """A point's coordinate count differs from the ambient dimension."""


class NotUpwardClosed(PolynerveError):
    pass
