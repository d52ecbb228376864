"""Masked scores, baseline priors, and evidence-kernel assembly.

Hard exclusions live in an explicit boolean mask. Score arrays hold
finite numbers only; entries that arrive as the JSON token "-inf" are
converted to mask=False at the I/O boundary (see matio) and zeroed
here. Keeping infinities out of the numeric arrays avoids NaN traps in
downstream sums.

The kernel is the Gibbs form prior * exp(s/tau): the exponential link
is the only one whose factors compose multiplicatively over added
scores, and the temperature tau is its one knob.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidBudget, NonFinite


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
        raise ValueError(f"{name} shape {arr.shape} != values shape {shape}")
    arr.setflags(write=False)
    return arr


class Frozen:
    """Base of the package's value types.

    Each __init__ validates its arguments and binds the fields once,
    through the instance __dict__; setting or deleting an attribute
    afterwards raises AttributeError. Equality is identity.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MaskedScore(Frozen):
    """Dense score matrix plus the admissible relation as a boolean mask.

    Entries are only meaningful where the mask is true; excluded entries
    are stored as 0.0 and never read.
    """

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        values = _as_matrix(values, "score values")
        mask = _as_mask(mask, values.shape)
        if not np.isfinite(values[mask]).all():
            raise ValueError("score values must be finite on the mask")
        cleaned = np.where(mask, values, 0.0)
        cleaned.setflags(write=False)
        self.__dict__.update(values=cleaned, mask=mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


class BaselinePrior(Frozen):
    """Strictly positive prior weights, one per (query, key) pair."""

    def __init__(self, values: np.ndarray):
        values = _as_matrix(values, "prior values")
        if not np.isfinite(values).all() or (values <= 0).any():
            raise ValueError("prior entries must be finite and strictly positive")
        self.__dict__.update(values=values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


class MaskedMatrix(Frozen):
    """Nonnegative weights on the carrier, supported on the admissible mask.

    values is a read-only float64 copy, finite, nonnegative and zero off
    the mask; mask is a read-only boolean array of the same shape. The
    kernel, conditional and plan types add their own law on top.
    """

    kind = "matrix"

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        values = _as_matrix(values, f"{self.kind} values")
        mask = _as_mask(mask, values.shape)
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValueError(f"{self.kind} values must be finite and nonnegative")
        if ((values != 0) & ~mask).any():
            raise ValueError(f"{self.kind} places mass off the mask")
        self.__dict__.update(values=values, mask=mask)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


class EvidenceKernel(MaskedMatrix):
    """Nonnegative kernel whose support equals the admissibility mask."""

    kind = "kernel"

    def __init__(self, values: np.ndarray, mask: np.ndarray):
        super().__init__(values, mask)
        # Nothing lies off the mask, so equal counts mean no zero on it.
        if np.count_nonzero(self.values) != np.count_nonzero(self.mask):
            raise ValueError("kernel support must equal the mask exactly")


def assemble_kernel(
    score: MaskedScore, prior: BaselinePrior | None = None, tau: float = 1.0
) -> EvidenceKernel:
    """K = prior * exp(score / tau) on the mask, exact zero off the mask;
    no prior is a prior of ones."""
    if not tau > 0:
        raise InvalidBudget("tau", f"must be strictly positive, got {tau!r}")
    if prior is not None and prior.shape != score.shape:
        raise ValueError(f"prior shape {prior.shape} != score shape {score.shape}")
    mask = score.mask
    out = np.zeros(score.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        weights = np.exp(score.values[mask] / tau)
        if prior is not None:
            weights = prior.values[mask] * weights
    # exp and the prior are strictly positive in exact arithmetic: an
    # admitted entry that is inf overflowed, one that is 0 underflowed.
    if not np.isfinite(weights).all():
        raise NonFinite("link overflowed to a non-finite kernel entry")
    if not weights.all():
        raise NonFinite("kernel entry underflowed to 0 on the mask")
    out[mask] = weights
    return EvidenceKernel(out, mask)
