"""Masked scores, baseline priors, links, and evidence-kernel assembly.

Hard exclusions live in an explicit boolean mask. Score arrays hold
finite numbers only; entries that arrive as the JSON token "-inf" are
converted to mask=False at the I/O boundary (see matio) and zeroed
here. Keeping infinities out of the numeric arrays avoids NaN traps in
downstream sums.

A link maps finite scores to strictly positive weights. The exponential
family exp(s/tau) is the one that survives the multiplicative
composition law; the named custom links exist so the admissibility
check has both passing and failing witnesses to chew on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NonFinite, ShapeMismatch


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


def _as_mask(mask, shape: tuple[int, int], name: str = "mask") -> np.ndarray:
    arr = np.array(mask, copy=True)
    if arr.dtype != np.bool_:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError(f"{name} entries must be boolean or 0/1")
        arr = arr.astype(bool)
    if arr.shape != shape:
        raise ShapeMismatch(f"{name} shape {arr.shape} != values shape {shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MaskedScore:
    """Dense score matrix plus the admissible relation as a boolean mask.

    Entries are only meaningful where the mask is true; excluded entries
    are stored as 0.0 and never read.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = _as_matrix(self.values, "score values")
        mask = _as_mask(self.mask, values.shape)
        if not np.isfinite(values[mask]).all():
            raise ValueError("score values must be finite on the mask")
        cleaned = np.where(mask, values, 0.0)
        cleaned.setflags(write=False)
        object.__setattr__(self, "values", cleaned)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class BaselinePrior:
    """Strictly positive prior weights, one per (query, key) pair."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_matrix(self.values, "prior values")
        if not np.isfinite(values).all() or (values <= 0).any():
            raise ValueError("prior entries must be finite and strictly positive")
        object.__setattr__(self, "values", values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


_LINK_KINDS = ("exp", "softplus", "square-plus-one", "exp-with-slope")


@dataclass(frozen=True)
class Link:
    """Map from finite scores to positive weights.

    kind "exp" is exp(s/tau). The remaining kinds are named built-ins
    used by the compositionality check: "exp-with-slope" is another
    member of the exponential family, "softplus" and "square-plus-one"
    are positive but not multiplicative.
    """

    kind: str = "exp"
    tau: float = 1.0
    slope: float = 1.0

    def __post_init__(self):
        if self.kind not in _LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.kind == "exp" and not self.tau > 0:
            raise ValueError("temperature tau must be strictly positive")

    def evaluate(self, scores) -> np.ndarray:
        """Apply the link elementwise. Every kind is strictly positive in
        exact arithmetic, so a 0 in the output is underflow."""
        s = np.asarray(scores, dtype=np.float64)
        if self.kind == "exp":
            return np.exp(s / self.tau)
        if self.kind == "exp-with-slope":
            return np.exp(self.slope * s)
        if self.kind == "softplus":
            return np.logaddexp(0.0, s)
        return 1.0 + s * s  # square-plus-one


@dataclass(frozen=True)
class MaskedMatrix:
    """Nonnegative weights on the carrier, supported on the admissible mask.

    values is a read-only float64 copy, finite, nonnegative and zero off
    the mask; mask is a read-only boolean array of the same shape. The
    kernel, conditional and plan types add their own law on top.
    """

    kind: ClassVar[str] = "matrix"

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = _as_matrix(self.values, f"{self.kind} values")
        mask = _as_mask(self.mask, values.shape)
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValueError(f"{self.kind} values must be finite and nonnegative")
        if ((values != 0) & ~mask).any():
            raise ValueError(f"{self.kind} places mass off the mask")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class EvidenceKernel(MaskedMatrix):
    """Nonnegative kernel whose support equals the admissibility mask."""

    kind: ClassVar[str] = "kernel"

    def __post_init__(self):
        super().__post_init__()
        # Nothing lies off the mask, so equal counts mean no zero on it.
        if np.count_nonzero(self.values) != np.count_nonzero(self.mask):
            raise ValueError("kernel support must equal the mask exactly")


def assemble_kernel(
    score: MaskedScore, prior: BaselinePrior | None = None, link: Link = Link()
) -> EvidenceKernel:
    """K = prior * link(score) on the mask, exact zero off the mask; no
    prior is a prior of ones."""
    if prior is not None and prior.shape != score.shape:
        raise ShapeMismatch(f"prior shape {prior.shape} != score shape {score.shape}")
    mask = score.mask
    out = np.zeros(score.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        weights = link.evaluate(score.values[mask])
        if prior is not None:
            weights = prior.values[mask] * weights
    # Link and prior are strictly positive in exact arithmetic: an
    # admitted entry that is inf overflowed, one that is 0 underflowed.
    if not np.isfinite(weights).all():
        raise NonFinite("link overflowed to a non-finite kernel entry")
    if not weights.all():
        raise NonFinite("kernel entry underflowed to 0 on the mask")
    out[mask] = weights
    return EvidenceKernel(out, mask)


def row_mass(kernel: EvidenceKernel) -> np.ndarray:
    """Total admissible evidence per row; exactly 0 for fully masked rows."""
    return kernel.values.sum(axis=1)


@dataclass(frozen=True)
class CompositionalityReport:
    passed: bool
    max_violation: float
    witness: tuple[float, float] | None = None


def check_link_compositionality(link: Link, grid, tol: float = 1e-12) -> CompositionalityReport:
    """Admissibility check: the evidence factor must be multiplicative.

    The factor in work coordinates is g(w) = link(-w). For every pair
    (w1, w2) on the grid the violation is
    |g(w1+w2) - g(w1) g(w2)| / (1 + |g(w1) g(w2)|); the report carries
    the worst pair. Exponential-family links pass at rounding level,
    anything else is expected to fail visibly.
    """
    grid = [float(w) for w in grid]
    if not grid:
        raise ValueError("grid must be nonempty")

    def g(w: float) -> float:
        return float(link.evaluate(np.array(-w)))

    worst = 0.0
    witness: tuple[float, float] | None = None
    for w1 in grid:
        for w2 in grid:
            lhs = g(w1 + w2)
            rhs = g(w1) * g(w2)
            violation = abs(lhs - rhs) / (1.0 + abs(rhs))
            if violation > worst:
                worst = violation
                witness = (w1, w2)
    return CompositionalityReport(passed=worst <= tol, max_violation=worst, witness=witness)
