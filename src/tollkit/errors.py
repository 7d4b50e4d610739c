"""Exception types shared across the package."""

import math


class TollkitError(Exception):
    """Base class for all package-specific errors."""


class GameValidationError(TollkitError, ValueError):
    """An instance, basis, allocation, or tax profile failed validation.

    Messages report 0-based player/resource/strategy positions, matching
    the on-disk JSON layout.
    """


class KernelNonConvergent(TollkitError, ArithmeticError):
    """The load-kernel series never met the decreasing-tail stop criterion.

    Raised when the term cap is exhausted first, which signals a generator
    growing too fast for the kernel to stabilise, i.e. the regime where the
    efficiency factor is unbounded.
    """


class KernelOverflow(TollkitError, OverflowError):
    """An intermediate kernel or tax value left the double range."""


class UnsupportedBasis(TollkitError, TypeError):
    """The requested computation needs a basis kind it cannot handle."""


class TooLarge(TollkitError):
    """Exhaustive enumeration would exceed the configured cap."""

    def __init__(self, size: int, cap: int):
        # Python prints no int of more than 4300 digits: past 10**18, three figures.
        count = str(size) if size <= 10 ** 18 else (
            f"{10 ** (math.log10(size) % 1):.2f}e+{int(math.log10(size))}")
        super().__init__(f"enumeration of {count} profiles exceeds cap {cap}")
        self.size = size
        self.cap = cap


class MaxItersExceeded(TollkitError):
    """Solver hit its iteration budget; ``profile`` holds the best iterate."""

    def __init__(self, message: str, profile=None):
        super().__init__(message)
        self.profile = profile


class NotConverged(TollkitError):
    """Dynamics did not settle within the step budget; ``trace`` has the path."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ConstructionFailed(TollkitError):
    """Randomised construction kept failing verification."""

    def __init__(self, message: str, *, worst_margin: float | None = None,
                 attempts: int | None = None):
        super().__init__(message)
        self.worst_margin = worst_margin
        self.attempts = attempts


class InvalidParams(TollkitError, ValueError):
    """Parameters violate a structural precondition."""


class InfeasibleParams(TollkitError, ValueError):
    """Parameters are structurally valid but cannot be satisfied."""


def require_finite_nonnegative(name: str, value: float) -> None:
    """Raise ``InvalidParams`` unless ``value`` is a finite number >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise InvalidParams(f"{name} must be finite and >= 0, got {value}")
