"""Update operators: attention, feedforward, and gated mixtures.

An update integrates a value field against a weight matrix: a coupling,
a row-stochastic family or a kernel. Scaled dot-product attention is
the special case where the conditional comes from row-anchoring an
exponential kernel built out of query/key products; its masked softmax
is a row gauge, exp, and row anchoring's own divide. A two-layer
feedforward block (ffn_apply) is a kernel update over a signed copy of
its hidden layer, a positive and a negative copy of each hidden unit
side by side, and ffn_as_ga checks ffn_apply against that form. A gated
mixture of updates is a single update over the branch-union carrier:
flatten_mixture puts the gated branches' key columns side by side, which
is the whole point: composition never leaves the class.
"""

from __future__ import annotations

import math

import numpy as np

from .anchor import _normalize_rows
from .errors import EmptyRow, InvalidBudget, NonFinite
from .score import BaselinePrior, EvidenceKernel, Frozen, MaskedMatrix, _as_mask, _as_matrix


def update(weights: MaskedMatrix, values) -> np.ndarray:
    """out(x) = sum_y W(x, y) v(y), i.e. weights.values @ values, for
    any weight matrix: a conditional family, a plan or a kernel."""
    values = _as_matrix(values, "value field")
    if not np.isfinite(values).all():
        raise ValueError("value field entries must be finite")
    if weights.shape[1] != values.shape[0]:
        raise ValueError(
            f"weight columns {weights.shape[1]} != value rows {values.shape[0]}"
        )
    return weights.values @ values


def masked_row_softmax(logits, mask) -> np.ndarray:
    """Row softmax restricted to the mask: a row gauge, exp, _normalize_rows.

    A fully masked row raises EmptyRow.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = _as_mask(mask, logits.shape)
    live = mask.any(axis=1)
    if not live.all():
        raise EmptyRow(int(np.flatnonzero(~live)[0]))
    # One n x n array, worked in place. Moving each row's peak to 0 keeps
    # exp in range and is a row gauge, which row anchoring is blind to
    # (row_gauge_invariance checks that law).
    weights = np.where(mask, logits, -np.inf)
    weights -= weights.max(axis=1, initial=-np.inf)[:, None]
    np.exp(weights, out=weights)
    return _normalize_rows(weights)


class AttentionParams(Frozen):
    """Projection matrices and kernel knobs for one attention head.

    tau and the 1/sqrt(d_k) factor are redundant knobs for the same
    scale; both are exposed and neither is canonicalized away. key_bias
    is indexed by key position, prior by (query, key). The admissible
    relation is not a parameter of the head: each call takes its mask.
    """

    def __init__(self, w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray, tau: float = 1.0,
                 key_bias: np.ndarray | None = None, prior: BaselinePrior | None = None):
        w_q = np.asarray(w_q, dtype=np.float64)
        w_k = np.asarray(w_k, dtype=np.float64)
        w_v = np.asarray(w_v, dtype=np.float64)
        if w_q.ndim != 2 or w_k.shape != w_q.shape or w_v.ndim != 2:
            raise ValueError("w_q and w_k must share shape; w_v must be a matrix")
        if w_v.shape[0] != w_q.shape[0]:
            raise ValueError("w_v input dimension must match w_q")
        if not tau > 0:
            raise InvalidBudget("tau", f"must be strictly positive, got {tau!r}")
        self.__dict__.update(w_q=w_q, w_k=w_k, w_v=w_v, tau=tau, key_bias=key_bias, prior=prior)

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_v(self) -> int:
        return self.w_v.shape[1]


def _finite(out: np.ndarray, what: str) -> np.ndarray:
    """out, or NonFinite when an entry overflowed to inf or NaN."""
    if not np.isfinite(out).all():
        raise NonFinite(f"{what} overflowed to a non-finite value")
    return out


def attention(embeddings, params: AttentionParams, mask=None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention as an anchored kernel update.

    Scores are q_i . k_j / sqrt(d_k) + key_bias(j); the weights are the
    row softmax of score/tau + log(prior) over the admissible relation
    mask (None is the full relation), and the output is weights @ values.
    Both come back as arrays; no ConditionalFamily is built here.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != params.d_model:
        raise ValueError(
            f"embeddings must be n x {params.d_model}, got {e.shape}"
        )
    n = e.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        q = e @ params.w_q
        k = e @ params.w_k
        v = e @ params.w_v
        scores = (q @ k.T) / math.sqrt(params.d_k)
        if params.key_bias is not None:
            bias = np.asarray(params.key_bias, dtype=np.float64)
            if bias.shape != (n,):
                raise ValueError(f"key bias must have length {n}")
            scores = scores + bias[None, :]
        logits = scores / params.tau
        if params.prior is not None:
            if params.prior.shape != (n, n):
                raise ValueError("prior shape must match the token count")
            logits = logits + np.log(params.prior.values)
        if mask is None:
            mask = np.ones((n, n), dtype=bool)
        weights = masked_row_softmax(logits, mask)
        out = weights @ v
    # Softmax entries lie in [0, 1] or are NaN (an infinite or NaN
    # logit), so one sum tells whether a ConditionalFamily would refuse
    # them.
    if math.isnan(weights.sum()):
        raise NonFinite("conditional values must be finite and nonnegative")
    return weights, _finite(out, "attention output")


def _erf(x: np.ndarray) -> np.ndarray:
    """erf of each entry: the C library's erf (math.erf), within 1 ulp of
    the correctly rounded value on glibc; numpy has no vectorized erf."""
    return np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _gelu(x: np.ndarray) -> np.ndarray:
    # Exact erf form. The tanh approximation would poison the
    # equivalence check at the 1e-10 level, so it is deliberately absent.
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": _gelu,
    "tanh": np.tanh,
}


class FfnParams(Frozen):
    """Two-layer feedforward block, hidden width d_ff."""

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
                 activation: str = "gelu"):
        w1 = np.asarray(w1, dtype=np.float64)
        b1 = np.asarray(b1, dtype=np.float64)
        w2 = np.asarray(w2, dtype=np.float64)
        b2 = np.asarray(b2, dtype=np.float64)
        if w1.ndim != 2 or w2.ndim != 2:
            raise ValueError("w1 and w2 must be matrices")
        d_ff, d_model = w1.shape
        if b1.shape != (d_ff,) or w2.shape != (d_model, d_ff) or b2.shape != (d_model,):
            raise ValueError("feedforward shapes are inconsistent")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.__dict__.update(w1=w1, b1=b1, w2=w2, b2=b2, activation=activation)

    @property
    def d_model(self) -> int:
        return self.w1.shape[1]


def ffn_apply(rows, params: FfnParams) -> np.ndarray:
    """Rowwise w2 . act(w1 x + b1) + b2 for a batch of row vectors."""
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite checks the output
        hidden = _ACTIVATIONS[params.activation](rows @ params.w1.T + params.b1)
        out = hidden @ params.w2.T + params.b2
    return _finite(out, "feedforward output")


def ffn_as_ga(rows, params: FfnParams) -> tuple[np.ndarray, np.ndarray]:
    """The block on a batch of rows by ffn_apply and as one kernel update:
    each activated hidden row, split into its positive and negative
    parts, is evidence over the signed hidden carrier (support = nonzero
    activations), integrated against +-(column j of w2) on the two
    copies of hidden unit j. The two routes must agree to 1e-10."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != params.d_model:
        raise ValueError(f"input rows must have length {params.d_model}")
    direct = ffn_apply(rows, params)
    with np.errstate(over="ignore", invalid="ignore"):  # ffn_apply has checked the output
        hidden = _ACTIVATIONS[params.activation](rows @ params.w1.T + params.b1)
    evidence = np.concatenate([np.maximum(hidden, 0.0), np.maximum(-hidden, 0.0)], axis=1)
    kernel = EvidenceKernel(evidence, evidence > 0)
    signed_values = np.concatenate([params.w2.T, -params.w2.T], axis=0)
    return direct, _finite(update(kernel, signed_values) + params.b2, "feedforward output")


def flatten_mixture(gates, weights) -> tuple[np.ndarray, np.ndarray]:
    """The weights of a gated mixture on the branch-union carrier: the
    blocks gate(x, b) * W_b(x, y) side by side, and their mask, where the
    gate is positive and W_b admits (x, y).

    weights lists the branches' weight matrices, all on one query
    carrier; gates is n_x by branches, nonnegative and finite. The caller
    wraps the result in the type whose law it claims: a ConditionalFamily
    for row-stochastic gates over conditional families, an EvidenceKernel
    over kernels. Updating with it against the branches' value fields,
    stacked in branch order, gives sum_b gate(., b) * (W_b @ v_b) up to
    summation order.
    """
    g = np.asarray(gates, dtype=np.float64)
    if not weights:
        raise ValueError("a mixture needs at least one branch")
    if g.ndim != 2 or g.shape[1] != len(weights):
        raise ValueError("gates must be n_x by number of branches")
    if (g < 0).any() or not np.isfinite(g).all():
        raise ValueError("gates must be nonnegative and finite")
    if any(w.shape[0] != g.shape[0] for w in weights):
        raise ValueError("branches must share the query carrier")
    gated = [(g[:, b : b + 1], w) for b, w in enumerate(weights)]
    values = np.concatenate([gate * w.values for gate, w in gated], axis=1)
    mask = np.concatenate([(gate > 0) & w.mask for gate, w in gated], axis=1)
    return values, mask
