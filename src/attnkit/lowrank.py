"""SVD, and the anchored score normal form.

The factorization itself is delegated to LAPACK through numpy, kept
behind a thin contract: singular values sorted nonincreasing, a fixed
column sign convention (largest-magnitude entry of each left singular
vector nonnegative) so output is reproducible, and NoConvergence where
the backend gives up.

score_normal_form truncates the double-centered interaction at rank r
(Eckart-Young: the best rank-r approximation in Frobenius norm) and
splits the singular values symmetrically across the two factors,
Q = U sqrt(S) and L = V sqrt(S). Any invertible r x r map A moves
between equivalent factor pairs (Q A^T, L A^{-1}) without touching the
products q(x) . k(y).
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonFinite
from .gauge import center_scores
from .score import Frozen

_DEGENERATE_REL_TOL = 1e-12


class SvdResult(Frozen):
    """Thin SVD with orthonormal columns and sorted singular values."""

    def __init__(self, U: np.ndarray, sigma: np.ndarray, V: np.ndarray):
        u = np.asarray(U, dtype=np.float64)
        s = np.asarray(sigma, dtype=np.float64)
        v = np.asarray(V, dtype=np.float64)
        p = s.size
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != p or v.shape[1] != p:
            raise ValueError("factor shapes disagree with the singular values")
        if (s < 0).any() or (np.diff(s) > 0).any():
            raise ValueError("singular values must be nonnegative and nonincreasing")
        for name, m in (("U", u), ("V", v)):
            gram = m.T @ m
            if np.abs(gram - np.eye(p)).max() > 1e-10:
                raise ValueError(f"{name} columns are not orthonormal")
        self.__dict__.update(U=u, sigma=s, V=v)


def svd(matrix) -> SvdResult:
    """Deterministic thin SVD with the package sign convention."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("svd input must be a matrix")
    if not np.isfinite(m).all():
        raise ValueError("svd input must be finite")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    v = vt.T.copy()
    u = u.copy()
    for k in range(s.size):
        lead = int(np.argmax(np.abs(u[:, k])))
        if u[lead, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    return SvdResult(u, s, v)


def _frobenius(diff: np.ndarray) -> float:
    """||diff||_F. Past ~1e154 the sum of squares overflows, so a finite
    diff whose norm is not is measured again as m ||diff / m||_F, m its
    largest absolute entry: the same norm in exact arithmetic. A norm
    past the largest double raises NonFinite."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(diff))
        if not np.isfinite(norm) and np.isfinite(diff).all():
            m = np.abs(diff).max()
            norm = float(m * np.linalg.norm(diff / m))
    if not np.isfinite(norm):
        raise NonFinite("truncation residual overflowed to a non-finite value")
    return norm


def degenerate_truncation(sigma, rank: int) -> bool:
    """True when the kept/dropped boundary falls inside a tied singular
    value, in which case the optimal approximation is not unique."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if rank <= 0 or rank >= sigma.size:
        return False
    scale = float(sigma[0]) if sigma.size else 0.0
    return float(sigma[rank - 1] - sigma[rank]) <= _DEGENERATE_REL_TOL * max(scale, 1e-300)


class LowRankChart(Frozen):
    """Rank-r factor pair for an interaction matrix, plus the key bias.

    key_bias is the column field that survives row anchoring; Q and L
    hold the query-side and key-side factors of the double-centered
    interaction.
    """

    def __init__(self, Q: np.ndarray, L: np.ndarray, rank: int, frobenius_residual: float,
                 key_bias: np.ndarray | None = None, degenerate: bool = False):
        self.__dict__.update(Q=Q, L=L, rank=rank, frobenius_residual=frobenius_residual,
                             key_bias=key_bias, degenerate=degenerate)


def score_normal_form(scores, rank: int) -> LowRankChart:
    """Double-center, then factor the interaction at the given rank.

    key_bias(y) + Q[x] . L[y] approximates the row-centered scores with
    Frobenius error equal to the truncation residual.
    """
    decomposition = center_scores(scores)
    interaction = decomposition.interaction
    result = svd(interaction)
    if not 0 <= rank <= result.sigma.size:
        raise ValueError(f"rank {rank} not in [0, {result.sigma.size}]")
    root = np.sqrt(result.sigma[:rank])
    q = result.U[:, :rank] * root
    l = result.V[:, :rank] * root
    if not (np.isfinite(q).all() and np.isfinite(l).all()):
        raise NonFinite("chart factors overflowed to a non-finite value")
    return LowRankChart(
        Q=q,
        L=l,
        rank=rank,
        frobenius_residual=_frobenius(interaction - q @ l.T),
        key_bias=decomposition.key_bias,
        degenerate=degenerate_truncation(result.sigma, rank),
    )
