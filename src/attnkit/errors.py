"""Error types raised across the package.

A class exists only if some caller branches on it: `ga` exits 2 on
ConfigInvalid and 3 on the numeric failures (NoConvergence, Infeasible,
EmptyRow, EmptyCol, NonFinite), and InvalidBudget names
the field it rejects. Any other bad argument (a wrong shape, a rank out
of range, a non-stochastic gate) is a plain ValueError with a message.
"""

from __future__ import annotations


class AttnKitError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(AttnKitError):
    """Pipeline configuration failed to parse or validate.

    The message carries a dotted field path so CLI users can find the
    offending entry.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class InvalidBudget(AttnKitError, ValueError):
    """An argument the call cannot run with, named by its field: a budget
    (max_iter, tol), a penalty (lam_out, lam_in), marginals (mu_out, mu_in)
    of the wrong length, or scalings (a, b) of the wrong length or sign."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field} {message}")


class NoConvergence(AttnKitError):
    pass


class Infeasible(AttnKitError):
    """The mask cannot support a coupling with the requested marginals."""


class EmptyRow(AttnKitError):
    """A row of the admissible relation is empty where mass is required."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"row {row} has no admissible entries")


class EmptyCol(AttnKitError):
    def __init__(self, col: int, message: str | None = None):
        self.col = col
        super().__init__(message or f"column {col} has no admissible entries")


class NonFinite(AttnKitError, ValueError):
    """A computed intermediate left the range of doubles: it overflowed
    to an infinite or NaN value, or a kernel entry that is positive in
    exact arithmetic underflowed to 0."""
