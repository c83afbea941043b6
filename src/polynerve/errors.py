"""Exception types shared across the package."""


class PolynerveError(Exception):
    """Base class for all errors raised by this package."""


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


class IndexOutOfRange(PolynerveError):
    pass


# --- morphisms and searches ----------------------------------------------


class DomainNotUpClosed(PolynerveError):
    pass


class TargetNotRooted(PolynerveError):
    pass


class SearchBudgetExceeded(PolynerveError):
    """A backtracking search visited more states than its budget allows."""


class NotComparableSignatures(PolynerveError):
    pass


# --- budgets --------------------------------------------------------------


class SizeBudgetExceeded(PolynerveError):
    """An output (nerve, valuation space, complex) would exceed its size cap."""


# --- logic layer ----------------------------------------------------------


class ForbiddenSignature(PolynerveError):
    """The two-pronged fork is rejected at the logic layer."""


class ParseError(PolynerveError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


class NotUpwardClosed(PolynerveError):
    pass
