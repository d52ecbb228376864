"""Update operators: attention, feedforward, and gated mixtures.

A plan update integrates a value field against a coupling; a
conditional update does the same against a row-stochastic family.
Scaled dot-product attention is the special case where the conditional
comes from row-anchoring an exponential kernel built out of query/key
products, and a two-layer feedforward block is a plan update over a
signed copy of its hidden layer. Gated mixtures of either kind flatten
into a single update over the branch-union carrier, which is the whole
point: composition never leaves the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anchor import ConditionalFamily, TransportPlan
from .carrier import BranchCarrier, Carrier, branch_union
from .errors import (
    EmptyRow,
    GateNotStochastic,
    MissingAlignment,
    NegativeGate,
    ShapeMismatch,
)
from .score import BaselinePrior, EvidenceKernel, _as_mask, _as_matrix

_PER_EDGE_TABLE_CAP = 10**6


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


@dataclass(frozen=True)
class AlignmentMaps:
    """Identity, or a sparse table of per-edge d x d maps keyed by (x, y).

    The table only needs to cover pairs it is actually consulted on,
    i.e. admissible ones. Dense tables past 1e6 entries are refused;
    at that point per-edge maps stop being a sane representation.
    """

    kind: str = "identity"
    table: dict | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "per_edge"):
            raise ValueError(f"unknown alignment kind {self.kind!r}")
        if self.kind == "per_edge":
            if self.table is None:
                raise ValueError("per-edge alignment needs a table")
            if len(self.table) > _PER_EDGE_TABLE_CAP:
                raise ValueError(
                    f"per-edge table with {len(self.table)} entries exceeds the "
                    f"{_PER_EDGE_TABLE_CAP} cap"
                )

    @classmethod
    def identity(cls) -> "AlignmentMaps":
        return cls()

    @classmethod
    def per_edge(cls, table: dict) -> "AlignmentMaps":
        return cls(kind="per_edge", table=dict(table))


def _weighted_update(weights, mask, field: ValueField, maps: AlignmentMaps) -> np.ndarray:
    if weights.shape[1] != field.n:
        raise ShapeMismatch(
            f"weight columns {weights.shape[1]} != value rows {field.n}"
        )
    if maps.kind == "identity":
        return weights @ field.values
    out = np.zeros((weights.shape[0], field.d))
    for x, y in np.argwhere(mask):
        edge = maps.table.get((int(x), int(y)))
        if edge is None:
            raise MissingAlignment(int(x), int(y))
        out[x] += weights[x, y] * (np.asarray(edge) @ field.values[y])
    return out


def plan_update(plan: TransportPlan, field: ValueField, maps: AlignmentMaps | None = None) -> np.ndarray:
    """out(x) = sum_y plan(x,y) T_{y->x} v(y); plain plan @ v for identity maps."""
    return _weighted_update(plan.values, plan.mask, field, maps or AlignmentMaps.identity())


def conditional_update(
    family: ConditionalFamily, field: ValueField, maps: AlignmentMaps | None = None
) -> np.ndarray:
    """Same as plan_update but against a row-stochastic family."""
    return _weighted_update(family.values, family.mask, field, maps or AlignmentMaps.identity())


def masked_row_softmax(logits, mask, on_empty: str = "error") -> np.ndarray:
    """Row softmax restricted to the mask, with per-row max subtraction.

    Fully masked rows either raise EmptyRow (default) or come back as
    all-zero rows when on_empty="zero"; the latter is the staged
    zero-update convention.
    """
    logits = np.asarray(logits, dtype=np.float64)
    mask = _as_mask(mask, logits.shape)
    live = mask.any(axis=1)
    if not live.all():
        if on_empty == "error":
            raise EmptyRow(int(np.flatnonzero(~live)[0]))
        if on_empty != "zero":
            raise ValueError(f"unknown empty-row policy {on_empty!r}")
    shifted = np.where(mask, logits, -np.inf)
    peak = shifted.max(axis=1, initial=-np.inf)
    peak = np.where(live, peak, 0.0)
    weights = np.exp(shifted - peak[:, None])  # exp(-inf) is an exact 0
    totals = weights.sum(axis=1)
    totals = np.where(live, totals, 1.0)
    return weights / totals[:, None]


@dataclass(frozen=True)
class AttentionParams:
    """Projection matrices and kernel knobs for one attention head.

    tau and the 1/sqrt(d_k) factor are redundant knobs for the same
    scale; both are exposed and neither is canonicalized away. key_bias
    is indexed by key position, prior and mask by (query, key).
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    tau: float = 1.0
    key_bias: np.ndarray | None = None
    prior: BaselinePrior | None = None
    mask: np.ndarray | None = None

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


def attention(
    embeddings, params: AttentionParams, on_empty: str = "error"
) -> tuple[ConditionalFamily, np.ndarray]:
    """Scaled dot-product attention as an anchored kernel update.

    Scores are q_i . k_j / sqrt(d_k) + key_bias(j); the weights are the
    row softmax of score/tau + log(prior) over the admissible relation,
    and the output is weights @ values.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[1] != params.d_model:
        raise ShapeMismatch(
            f"embeddings must be n x {params.d_model}, got {e.shape}"
        )
    n = e.shape[0]
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
    mask = params.mask if params.mask is not None else np.ones((n, n), dtype=bool)
    weights = masked_row_softmax(logits, mask, on_empty=on_empty)
    family = ConditionalFamily(weights, np.asarray(mask, dtype=bool))
    return family, weights @ v


def multi_head(embeddings, heads, w_o) -> np.ndarray:
    """Concatenate per-head outputs in head order and project with w_o."""
    if not heads:
        raise ValueError("multi_head needs at least one head")
    outputs = [attention(embeddings, head)[1] for head in heads]
    stacked = np.concatenate(outputs, axis=1)
    w_o = np.asarray(w_o, dtype=np.float64)
    if w_o.ndim != 2 or w_o.shape[0] != stacked.shape[1]:
        raise ShapeMismatch(
            f"w_o must have {stacked.shape[1]} rows, got {w_o.shape}"
        )
    return stacked @ w_o


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
    hidden = _ACTIVATIONS[params.activation](rows @ params.w1.T + params.b1)
    return hidden @ params.w2.T + params.b2


def signed_hidden_carrier(d_ff: int) -> BranchCarrier:
    hidden = Carrier.indexed("hidden", d_ff)
    return branch_union([("pos", hidden), ("neg", hidden)])


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
    hidden = _ACTIVATIONS[params.activation](params.w1 @ x + params.b1)
    direct = params.w2 @ hidden + params.b2

    positive = np.maximum(hidden, 0.0)
    negative = np.maximum(-hidden, 0.0)
    evidence = np.concatenate([positive, negative])[None, :]
    kernel = EvidenceKernel(evidence, evidence > 0)
    signed_values = ValueField(np.concatenate([params.w2.T, -params.w2.T], axis=0))
    ga_form = (kernel.values @ signed_values.values)[0] + params.b2
    return direct, ga_form


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
        out += gate * _weighted_update(
            weights.values, weights.mask, field, AlignmentMaps.identity()
        )
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


@dataclass(frozen=True)
class IntegralView:
    """The kernel rows read as measures on the key carrier.

    masses[x] is the measure of {y}; integrals[x] is the integral of the
    value field against that measure, which coincides with the plan
    update. Rows with positive total mass also carry the normalized
    measure and its integral (the conditional update); dead rows hold
    zeros there.
    """

    masses: np.ndarray
    integrals: np.ndarray
    row_mass: np.ndarray
    has_mass: np.ndarray
    normalized: np.ndarray
    conditional_integrals: np.ndarray


def integral_view(kernel: EvidenceKernel, field: ValueField) -> IntegralView:
    if kernel.shape[1] != field.n:
        raise ShapeMismatch("kernel columns must index the value field")
    mass = kernel.values.sum(axis=1)
    live = mass > 0
    safe = np.where(live, mass, 1.0)
    normalized = np.where(live[:, None], kernel.values / safe[:, None], 0.0)
    return IntegralView(
        masses=kernel.values,
        integrals=kernel.values @ field.values,
        row_mass=mass,
        has_mass=live,
        normalized=normalized,
        conditional_integrals=normalized @ field.values,
    )
