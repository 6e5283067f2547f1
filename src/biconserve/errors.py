"""Exception types shared across the package."""


def plain_point(point) -> tuple:
    """A point as a tuple of Python floats, so messages print (354.0, ...)."""
    return tuple(float(x) for x in point)


class BiconserveError(Exception):
    """Base class for all package errors."""


class ContractViolation(BiconserveError):
    """An operation was called with inputs violating its preconditions."""


class DomainError(BiconserveError):
    """Evaluation left the valid domain of an expression or profile."""


class DegenerateFrameError(BiconserveError):
    """Tangent frame is numerically rank deficient."""


class DegenerateMetric(BiconserveError):
    def __init__(self, point, det):
        self.point = plain_point(point)
        self.det = det
        super().__init__(f"induced metric degenerate at {self.point} (det={det:.3e})")


class UnexpectedIndex(BiconserveError):
    def __init__(self, found, expected, point=None):
        self.found = found
        self.expected = expected
        self.point = None if point is None else plain_point(point)
        super().__init__(
            f"induced metric has index {found}, expected {expected}"
            + ("" if point is None else f" at {self.point}")
        )


class DegenerateNormal(BiconserveError):
    """The normal at a point is not spacelike: timelike, or lightlike or
    degenerate.  The engine takes only a spacelike normal, <N, N> > 0."""

    def __init__(self, point, timelike: bool = False):
        self.point = plain_point(point)
        self.timelike = bool(timelike)
        kind = "timelike" if timelike else "lightlike/degenerate"
        super().__init__(f"normal direction is {kind} at {self.point}; only a spacelike "
                         f"normal is supported")


class ConstraintError(BiconserveError):
    def __init__(self, condition, detail=""):
        self.condition = condition
        msg = f"violated side condition: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
