"""Update operators: attention, feedforward, and gated mixtures.

A plan update integrates a value field against a coupling; a
conditional update does the same against a row-stochastic family.
Scaled dot-product attention is the special case where the conditional
comes from row-anchoring an exponential kernel built out of query/key
products, and a two-layer feedforward block is a plan update over a
signed copy of its hidden layer (a positive and a negative copy of
each hidden unit, side by side). Gated mixtures of either kind flatten
into a single update over the branch-union carrier, the branches' key
columns side by side, which is the whole point: composition never
leaves the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchor import ConditionalFamily, TransportPlan
from .errors import (
    EmptyRow,
    GateNotStochastic,
    NegativeGate,
    NonFinite,
    ShapeMismatch,
)
from .score import BaselinePrior, EvidenceKernel, _as_mask, _as_matrix

@dataclass(frozen=True)
class ValueField:
    """Finite feature vectors indexed by the key-side carrier."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_matrix(self.values, "value field")
        if not np.isfinite(values).all():
            raise ValueError("value field entries must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _weighted_update(weights, field: ValueField) -> np.ndarray:
    if weights.shape[1] != field.n:
        raise ShapeMismatch(
            f"weight columns {weights.shape[1]} != value rows {field.n}"
        )
    return weights @ field.values


def plan_update(plan: TransportPlan, field: ValueField) -> np.ndarray:
    """out(x) = sum_y plan(x,y) v(y), i.e. plan @ v."""
    return _weighted_update(plan.values, field)


def conditional_update(family: ConditionalFamily, field: ValueField) -> np.ndarray:
    """Same as plan_update but against a row-stochastic family."""
    return _weighted_update(family.values, field)


def masked_row_softmax(logits, mask, on_empty: str = "error") -> np.ndarray:
    """Row softmax restricted to the mask, with per-row max subtraction.

    Fully masked rows either raise EmptyRow (default) or come back as
    all-zero rows when on_empty="zero"; the latter is the staged
    zero-update convention.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = _as_mask(mask, logits.shape)
    live = mask.any(axis=1)
    dead = not live.all()
    if dead:
        if on_empty == "error":
            raise EmptyRow(int(np.flatnonzero(~live)[0]))
        if on_empty != "zero":
            raise ValueError(f"unknown empty-row policy {on_empty!r}")
    # One n x n array, worked in place: shift, exp (exp(-inf) is an
    # exact 0), normalize. Dead rows shift by 0 and divide by 1.
    weights = np.where(mask, logits, -np.inf)
    peak = weights.max(axis=1, initial=-np.inf)
    if dead:
        peak[~live] = 0.0
    weights -= peak[:, None]
    np.exp(weights, out=weights)
    totals = weights.sum(axis=1)
    if dead:
        totals[~live] = 1.0
    weights /= totals[:, None]
    return weights


@dataclass(frozen=True)
class AttentionParams:
    """Projection matrices and kernel knobs for one attention head.

    tau and the 1/sqrt(d_k) factor are redundant knobs for the same
    scale; both are exposed and neither is canonicalized away. key_bias
    is indexed by key position, prior by (query, key). The admissible
    relation is not a parameter of the head: each call takes its mask.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    tau: float = 1.0
    key_bias: np.ndarray | None = None
    prior: BaselinePrior | None = None

    def __post_init__(self):
        w_q = np.asarray(self.w_q, dtype=np.float64)
        w_k = np.asarray(self.w_k, dtype=np.float64)
        w_v = np.asarray(self.w_v, dtype=np.float64)
        if w_q.ndim != 2 or w_k.shape != w_q.shape or w_v.ndim != 2:
            raise ShapeMismatch("w_q and w_k must share shape; w_v must be a matrix")
        if w_v.shape[0] != w_q.shape[0]:
            raise ShapeMismatch("w_v input dimension must match w_q")
        if not self.tau > 0:
            raise ValueError("temperature tau must be strictly positive")
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)
        object.__setattr__(self, "w_v", w_v)

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


def _attend(
    embeddings, params: AttentionParams, mask, on_empty: str
) -> tuple[np.ndarray, np.ndarray]:
    """The softmax weights and the output of attention under mask (None
    is the full relation), without building a ConditionalFamily."""
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != params.d_model:
        raise ShapeMismatch(
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
                raise ShapeMismatch(f"key bias must have length {n}")
            scores = scores + bias[None, :]
        logits = scores / params.tau
        if params.prior is not None:
            if params.prior.shape != (n, n):
                raise ShapeMismatch("prior shape must match the token count")
            logits = logits + np.log(params.prior.values)
        if mask is None:
            mask = np.ones((n, n), dtype=bool)
        weights = masked_row_softmax(logits, mask, on_empty=on_empty)
        out = weights @ v
    # Softmax entries lie in [0, 1] or are NaN (an infinite or NaN
    # logit), so one sum tells whether a ConditionalFamily would refuse
    # them.
    if math.isnan(weights.sum()):
        raise NonFinite("conditional values must be finite and nonnegative")
    return weights, _finite(out, "attention output")


def attention(
    embeddings, params: AttentionParams, mask=None, on_empty: str = "error"
) -> tuple[ConditionalFamily, np.ndarray]:
    """Scaled dot-product attention as an anchored kernel update.

    Scores are q_i . k_j / sqrt(d_k) + key_bias(j); the weights are the
    row softmax of score/tau + log(prior) over the admissible relation
    mask (None is the full relation), and the output is weights @ values.
    """
    weights, out = _attend(embeddings, params, mask, on_empty)
    if mask is None:
        mask = np.ones(weights.shape, dtype=bool)
    return ConditionalFamily(weights, np.asarray(mask, dtype=bool)), out


def _coefficients(*values) -> tuple:
    # 0-d arrays: numpy adds one to an array in about half the time it
    # takes for a Python float, and gelu mostly sees small batches.
    return tuple(np.array(v) for v in values)


# Cephes ndtr.c (Moshier) rational approximations, the ones scipy's
# compiled erf evaluates: x T(x^2) / U(x^2) on |x| <= 1, and
# erfc = exp(-x^2) P(x) / Q(x) on 1 < |x| < 8. U and Q are monic; their
# leading 1 is implied.
_ERF_T = _coefficients(
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = _coefficients(
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = _coefficients(
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = _coefficients(
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _polevl(z: np.ndarray, coef: tuple) -> np.ndarray:
    acc = np.full_like(z, coef[0])
    for c in coef[1:]:
        acc *= z
        acc += c
    return acc


def _p1evl(z: np.ndarray, coef: tuple) -> np.ndarray:
    acc = z + coef[0]
    for c in coef[1:]:
        acc *= z
        acc += c
    return acc


def _erf(x) -> np.ndarray:
    """erf, bit for bit equal to scipy.special.erf on float64.

    Same algorithm, same operation order: Horner in Cephes' order, erf =
    1 - erfc past |x| = 1, erf = 1 from |x| = 8 on (erfc(8) is below
    half an ulp of 1), odd symmetry, and a canonical NaN for NaN input.
    The tail's exp(-x^2) comes from math.exp, i.e. the C library's exp
    that scipy calls; numpy's vectorized exp rounds differently on a few
    percent of arguments.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x).ravel()
    out = np.ones_like(a)
    near = np.nonzero(a <= 1.0)[0]
    s = a[near]
    z = s * s
    out[near] = s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    tail = np.nonzero((a > 1.0) & (a < 8.0))[0]
    # The erfc branch is ~30 numpy calls, and a small hidden layer often
    # has no entry in it.
    if tail.size:
        t = a[tail]
        decay = np.fromiter(map(math.exp, (-(t * t)).tolist()), np.float64, t.size)
        out[tail] = 1.0 - decay * _polevl(t, _ERFC_P) / _p1evl(t, _ERFC_Q)
    out = np.copysign(out, x.ravel())
    out[np.isnan(a)] = np.nan
    return out.reshape(x.shape)


def _gelu(x: np.ndarray) -> np.ndarray:
    # Exact erf form. The tanh approximation would poison the
    # equivalence check at the 1e-10 level, so it is deliberately absent.
    return 0.5 * x * (1.0 + _erf(x / math.sqrt(2.0)))


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": _gelu,
    "tanh": np.tanh,
}


@dataclass(frozen=True)
class FfnParams:
    """Two-layer feedforward block, hidden width d_ff."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    activation: str = "gelu"

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        if w1.ndim != 2 or w2.ndim != 2:
            raise ShapeMismatch("w1 and w2 must be matrices")
        d_ff, d_model = w1.shape
        if b1.shape != (d_ff,) or w2.shape != (d_model, d_ff) or b2.shape != (d_model,):
            raise ShapeMismatch("feedforward shapes are inconsistent")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def d_model(self) -> int:
        return self.w1.shape[1]

    @property
    def d_ff(self) -> int:
        return self.w1.shape[0]


def ffn_apply(rows, params: FfnParams) -> np.ndarray:
    """Rowwise w2 . act(w1 x + b1) + b2 for a batch of row vectors."""
    rows = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # _finite checks the output
        hidden = _ACTIVATIONS[params.activation](rows @ params.w1.T + params.b1)
        out = hidden @ params.w2.T + params.b2
    return _finite(out, "feedforward output")


def ffn_as_ga(x, params: FfnParams) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the block directly and as a kernel update; return both.

    The kernel route splits the activated hidden vector into its
    positive and negative parts, uses them as evidence over the signed
    hidden carrier (support = nonzero activations), and integrates the
    value field that assigns +-(column j of w2) to the two copies of
    hidden unit j. The two routes must agree to 1e-10.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.d_model,):
        raise ShapeMismatch(f"input must have length {params.d_model}")
    with np.errstate(over="ignore", invalid="ignore"):  # _finite checks the output
        hidden = _ACTIVATIONS[params.activation](params.w1 @ x + params.b1)
        direct = params.w2 @ hidden + params.b2
    # A non-finite hidden unit makes the direct output non-finite too.
    direct = _finite(direct, "feedforward output")

    positive = np.maximum(hidden, 0.0)
    negative = np.maximum(-hidden, 0.0)
    evidence = np.concatenate([positive, negative])[None, :]
    kernel = EvidenceKernel(evidence, evidence > 0)
    signed_values = ValueField(np.concatenate([params.w2.T, -params.w2.T], axis=0))
    ga_form = (kernel.values @ signed_values.values)[0] + params.b2
    return direct, _finite(ga_form, "feedforward output")


def _mixture_gates(gates, branches) -> np.ndarray:
    g = np.asarray(gates, dtype=np.float64)
    if not branches:
        raise ShapeMismatch("a mixture needs at least one branch")
    if g.ndim != 2 or g.shape[1] != len(branches):
        raise ShapeMismatch("gates must be n_x by number of branches")
    return g


def _flatten_mixture(gates: np.ndarray, branches) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mixed update sum_b gate(., b) * (W_b @ v_b), plus the
    flattened weights gate(x, b) * W_b(x, y) and their mask on the
    branch-union carrier."""
    n_x = gates.shape[0]
    d = branches[0][1].d
    blocks = []
    masks = []
    out = np.zeros((n_x, d))
    for b, (weights, field) in enumerate(branches):
        if weights.shape[0] != n_x:
            raise ShapeMismatch("branches must share the query carrier")
        if field.d != d:
            raise ShapeMismatch("branch value fields must share the feature dimension")
        gate = gates[:, b : b + 1]
        out += gate * _weighted_update(weights.values, field)
        blocks.append(gate * weights.values)
        masks.append((gate > 0) & weights.mask)
    return out, np.concatenate(blocks, axis=1), np.concatenate(masks, axis=1)


def gated_mixture_conditional(gates, branches) -> tuple[np.ndarray, ConditionalFamily]:
    """Mix conditional updates and flatten them into one conditional.

    gates is row-stochastic over branches. The flattened family on the
    branch-union carrier has entries gate(x,b) * pi_b(y|x); updating
    with it reproduces the mixed output up to summation order.
    """
    alpha = _mixture_gates(gates, branches)
    if (alpha < 0).any() or not np.isfinite(alpha).all():
        raise GateNotStochastic("gates must be nonnegative and finite")
    if (np.abs(alpha.sum(axis=1) - 1.0) > 1e-12).any():
        raise GateNotStochastic("gate rows must sum to 1 within 1e-12")
    out, values, mask = _flatten_mixture(alpha, branches)
    return out, ConditionalFamily(values, mask)


def gated_mixture_plan(gates, branches) -> tuple[np.ndarray, EvidenceKernel]:
    """Mix plan-style kernel updates and flatten to one kernel.

    gates only needs to be nonnegative. Flattened kernel entries are
    gate(x,b) * K_b(x,y) over the branch-union carrier.
    """
    beta = _mixture_gates(gates, branches)
    if (beta < 0).any() or not np.isfinite(beta).all():
        raise NegativeGate("plan gates must be nonnegative and finite")
    out, values, mask = _flatten_mixture(beta, branches)
    return out, EvidenceKernel(values, mask)
