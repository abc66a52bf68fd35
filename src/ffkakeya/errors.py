"""Exception types shared across the package."""


class KakeyaError(Exception):
    """Base class for all library-specific errors."""


class NonOddPrimeError(KakeyaError, ValueError):
    """p is not an odd prime, or q is not an odd prime power."""


class SizeCapError(KakeyaError, OverflowError):
    """A requested field or point space exceeds the supported size caps."""


class ZeroCoefficientError(KakeyaError, ValueError):
    """A diagonal equation was given a zero coefficient."""


class ZeroRadiusError(KakeyaError, ValueError):
    """Spheres, hyper-spheres and circles require a nonzero radius."""


class ZeroDirectionError(KakeyaError, ValueError):
    """Hyper-spheres require a nonzero direction vector."""


class IdenticalSpheresError(KakeyaError, ValueError):
    """Intersection size is only defined for two distinct spheres."""


class NotANonsquareError(KakeyaError, ValueError):
    """The common-center construction needs a nonsquare radius."""


class NotASquareFieldError(KakeyaError, ValueError):
    """The subfield-pair construction needs q to be a perfect square."""


class WrongDegreeError(KakeyaError, ValueError):
    """The odd-power construction needs q = p^(2m+1) with m >= 1."""


class BadDimensionError(KakeyaError, ValueError):
    """Operation undefined for this dimension."""


class UsageError(KakeyaError, ValueError):
    """Malformed input: a missing key, a value of the wrong type, or a rank
    outside its range."""


class BudgetExceededError(KakeyaError):
    """An exhaustive scan would exceed the configured work budget."""

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"estimated work {estimate} exceeds budget {budget}")
