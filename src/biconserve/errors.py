"""Exception types shared across the package."""


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
        self.point = tuple(point)
        self.det = det
        super().__init__(f"induced metric degenerate at {self.point} (det={det:.3e})")


class UnexpectedIndex(BiconserveError):
    def __init__(self, found, expected, point=None):
        self.found = found
        self.expected = expected
        self.point = None if point is None else tuple(point)
        super().__init__(
            f"induced metric has index {found}, expected {expected}"
            + ("" if point is None else f" at {self.point}")
        )


class DegenerateNormal(BiconserveError):
    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"normal direction is lightlike/degenerate at {self.point}")


class ConstraintError(BiconserveError):
    def __init__(self, condition, detail=""):
        self.condition = condition
        msg = f"violated side condition: {condition}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
