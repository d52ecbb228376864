"""Error types raised across the package.

Every failure mode a caller is expected to branch on gets a named class.
Anything not listed here surfaces as a plain ValueError from input
validation in the type constructors.
"""

from __future__ import annotations


class AttnKitError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatch(AttnKitError):
    pass


class CarrierMismatch(AttnKitError):
    pass


class EmptyRow(AttnKitError):
    """A row of the admissible relation is empty where mass is required."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row} has no admissible entries")


class EmptyCol(AttnKitError):
    def __init__(self, col: int, message: str | None = None):
        self.col = col
        super().__init__(message or f"column {col} has no admissible entries")


class Infeasible(AttnKitError):
    """The mask cannot support a coupling with the requested marginals."""


class InvalidBudget(AttnKitError, ValueError):
    """A solver parameter it cannot run with: an iteration budget
    (max_iter or tol) or a marginal penalty (lam_out or lam_in)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


class NonFinite(AttnKitError, ValueError):
    """A computed intermediate left the range of doubles: it overflowed
    to an infinite or NaN value, or a kernel entry that is positive in
    exact arithmetic underflowed to 0."""


class ZeroMarginal(AttnKitError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"marginal entry {index} is not strictly positive")


class NonPositiveScaling(AttnKitError):
    pass


class MaskedInputRejected(AttnKitError):
    """Centering needs fully finite input; masked data must go through
    the weighted variant with an explicit reference weight."""


class ZeroRowMass(AttnKitError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"reference weight row {row} has zero total mass")


class MissingPotential(AttnKitError):
    pass


class NotACycle(AttnKitError):
    pass


class RankOutOfRange(AttnKitError):
    pass


class SingularChartMap(AttnKitError):
    pass


class NoConvergence(AttnKitError):
    pass


class GateNotStochastic(AttnKitError):
    pass


class NegativeGate(AttnKitError):
    pass


class NonSquareMask(AttnKitError):
    pass


class IndexOutOfRange(AttnKitError):
    pass


class ConfigInvalid(AttnKitError):
    """Pipeline configuration failed to parse or validate.

    The message carries a dotted field path so CLI users can find the
    offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnknownSuite(AttnKitError):
    pass
