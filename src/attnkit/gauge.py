"""Scaling actions and centering quotients.

Row anchoring is blind to positive left scalings of the kernel, and
balanced transport anchoring is blind to two-sided scalings; this
module provides the group action and the quotient of a score matrix by
both unary fields (double centering).

Double centering keeps exactly the gauge invariants of a score matrix:
the 2x2 cross differences S[x,y] - S[x,y'] - S[x',y] + S[x',y'], which
are the cycle sums of the bipartite carrier graph.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBudget, NonFinite
from .score import EvidenceKernel, Frozen


def _positive_vector(values, n: int, field: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise InvalidBudget(field, f"must have length {n}")
    if not np.isfinite(arr).all() or (arr <= 0).any():
        raise InvalidBudget(field, "must be finite and strictly positive")
    return arr


def scale_kernel(kernel: EvidenceKernel, a, b) -> EvidenceKernel:
    """Two-sided scaling action: K'[i,j] = a[i] K[i,j] b[j]."""
    n_x, n_y = kernel.shape
    a = _positive_vector(a, n_x, "a")
    b = _positive_vector(b, n_y, "b")
    with np.errstate(over="ignore"):  # checked below
        scaled = a[:, None] * kernel.values * b[None, :]
    # Every factor is positive on the mask: inf there overflowed, 0 underflowed.
    if not np.isfinite(scaled).all():
        raise NonFinite("scaled kernel overflowed to a non-finite entry")
    if not scaled[kernel.mask].all():
        raise NonFinite("scaled kernel entry underflowed to 0 on the mask")
    return EvidenceKernel(scaled, kernel.mask)


class CenteredDecomposition(Frozen):
    """Grand mean, unary fields, and the double-centered interaction.

    Reconstruction: S(x,y) = row_means[x] + col_means[y] - grand_mean
    + interaction[x,y]. The key bias is col_means - grand_mean, the
    column field a row-anchored probe can still see.
    """

    def __init__(self, grand_mean: float, row_means: np.ndarray, col_means: np.ndarray,
                 interaction: np.ndarray, key_bias: np.ndarray):
        self.__dict__.update(grand_mean=grand_mean, row_means=row_means, col_means=col_means,
                             interaction=interaction, key_bias=key_bias)


def center_scores(scores) -> CenteredDecomposition:
    """Remove both unary fields from a fully finite score matrix.

    Returns the full decomposition, whose interaction part has zero row
    and column sums. Masked or non-finite input is rejected: arithmetic
    means are undefined under a mask, and no reference weight is picked
    silently in their place.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or not s.size:
        raise ValueError("scores must be a 2-d matrix with at least one entry")
    if not np.isfinite(s).all():
        raise ValueError(
            "plain centering needs fully finite scores; arithmetic means are "
            "undefined under a mask"
        )
    parts = _centered(s)
    if not all(np.isfinite(part).all() for part in parts):
        # A mean of finite scores can overflow in its sum, and a difference
        # of finite ones past the range of doubles. Centering s / m, m the
        # largest absolute entry, and scaling back by m is the same in
        # exact arithmetic; only a result past the doubles is refused.
        m = np.abs(s).max()
        with np.errstate(over="ignore"):
            parts = [m * part for part in _centered(s / m)]
        if not all(np.isfinite(part).all() for part in parts):
            raise NonFinite("centering overflowed to a non-finite value")
    interaction, grand_mean, row_means, col_means, key_bias = parts
    return CenteredDecomposition(float(grand_mean), row_means, col_means, interaction, key_bias)


def _centered(s: np.ndarray) -> list:
    """The double-centered interaction of s, the grand mean, the row and
    column means and the key bias."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the caller
        row_means = s.mean(axis=1)
        col_means = s.mean(axis=0)
        grand_mean = s.mean()
        interaction = s - row_means[:, None] - col_means[None, :] + grand_mean
        return [interaction, grand_mean, row_means, col_means, col_means - grand_mean]
