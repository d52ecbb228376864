"""Depth as staged composition, plus the influence bookkeeping it admits.

One stage charts the current record (identity or a norm), computes an
anchored attention update, composes it back (additive residual, gated
residual, or post-norm), then does the same with a rowwise feedforward
update. Stacking stages gives the usual pre-norm block tower; a
schedule may also coarse-grain the carrier between stages, pooling
records within buckets and pushing the admissible relation forward.
A schedule without coarse-graining steps keeps the carrier fixed, which
is the plain fixed-token stack; run_schedule runs both.

Influence relations record which rows can reach which across stages.
Composing the per-stage relations gives the predecessor set Pre_t(x);
perturbing any row outside it leaves the stage-t update at x bitwise
unchanged, and barrier_check verifies exactly that by running the
schedule twice. Note the mask semantics this relies on: the residual
path makes every row depend on its own past, so stage masks should
contain the diagonal for the composed relation to cover all routes
(causal masks do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carrier import RefinementMap, pushforward_kernel
from .errors import (
    CarrierMismatch,
    IndexOutOfRange,
    NonSquareMask,
    ShapeMismatch,
)
from .operator import AttentionParams, FfnParams, _attend, ffn_apply
from .score import EvidenceKernel


@dataclass(frozen=True)
class ChartSpec:
    """How a record is charted before the update reads it."""

    kind: str = "rms_norm"
    eps: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("identity", "rms_norm", "layer_norm"):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if not self.eps > 0:
            raise ValueError(f"eps must be strictly positive, got {self.eps!r}")


@dataclass(frozen=True)
class CompSpec:
    """How an update is composed back into the record.

    gated composition needs a gate matrix of shape (2 d, d); the gate is
    an elementwise sigmoid of the linear map applied to the
    concatenation of record and update. postnorm renormalizes the sum
    with its own norm kind and epsilon.
    """

    kind: str = "additive"
    gate: np.ndarray | None = None
    norm: str = "rms_norm"
    eps: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("additive", "gated", "postnorm"):
            raise ValueError(f"unknown composition kind {self.kind!r}")
        if self.kind == "gated":
            if self.gate is None:
                raise ValueError("gated composition needs a gate matrix")
            gate = np.asarray(self.gate, dtype=np.float64)
            if gate.ndim != 2 or gate.shape[0] != 2 * gate.shape[1]:
                raise ShapeMismatch("gate matrix must have shape (2 d, d)")
            object.__setattr__(self, "gate", gate)
        if self.norm not in ("rms_norm", "layer_norm"):
            raise ValueError(f"unknown postnorm kind {self.norm!r}")
        if not self.eps > 0:
            raise ValueError(f"eps must be strictly positive, got {self.eps!r}")


@dataclass(frozen=True)
class StagedConfig:
    chart: ChartSpec = ChartSpec()
    comp: CompSpec = CompSpec()
    zero_update_on_empty: bool = False


def apply_chart(records, chart: ChartSpec) -> np.ndarray:
    r = np.asarray(records, dtype=np.float64)
    if chart.kind == "identity":
        return r
    if chart.kind == "rms_norm":
        # The sum over the count is .mean(axis=1) bit for bit, without
        # its per-call overhead.
        scale = np.sqrt((r * r).sum(axis=1) / r.shape[1] + chart.eps)
        return r / scale[:, None]
    mean = r.mean(axis=1, keepdims=True)
    var = r.var(axis=1, keepdims=True)
    return (r - mean) / np.sqrt(var + chart.eps)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def apply_comp(records, update, comp: CompSpec) -> np.ndarray:
    r = np.asarray(records, dtype=np.float64)
    delta = np.asarray(update, dtype=np.float64)
    if r.shape != delta.shape:
        raise ShapeMismatch("record and update shapes disagree")
    if comp.kind == "additive":
        return r + delta
    if comp.kind == "gated":
        if comp.gate.shape != (2 * r.shape[1], r.shape[1]):
            raise ShapeMismatch("gate matrix does not match the record width")
        eta = _sigmoid(np.concatenate([r, delta], axis=1) @ comp.gate)
        return r + eta * delta
    return apply_chart(r + delta, ChartSpec(comp.norm, comp.eps))


def run_block(records, attn: AttentionParams, ffn: FfnParams, cfg: StagedConfig) -> np.ndarray:
    """One two-sublayer stage: chart, attend, compose, chart, feed forward,
    compose."""
    next_records, _ = _block_with_update(records, attn, ffn, cfg, attn.mask)
    return next_records


def _block_with_update(records, attn, ffn, cfg, mask) -> tuple[np.ndarray, np.ndarray]:
    """The next records and the stage update, attending under mask."""
    r = np.asarray(records, dtype=np.float64)
    if attn.d_v != r.shape[1] or ffn.d_model != r.shape[1]:
        raise ShapeMismatch("attention and feedforward widths must match the record")
    on_empty = "zero" if cfg.zero_update_on_empty else "error"
    _, attn_update = _attend(apply_chart(r, cfg.chart), attn, mask, on_empty)
    mid = apply_comp(r, attn_update, cfg.comp)
    ffn_update = ffn_apply(apply_chart(mid, cfg.chart), ffn)
    out = apply_comp(mid, ffn_update, cfg.comp)
    return out, out - r


def full_history_readout(records, alpha, phi) -> np.ndarray:
    """Charted state Hhat = sum_k alpha[k] (rowwise) * phi[k](R_k).

    records is the list R_0..R_t; alpha[k] gates rows of the placed
    record; phi[k] = None means identity placement, otherwise an
    (n_now, n_k) matrix on the token axis. One-hot alpha at k=t with
    identity phi is exactly Markov memory.
    """
    records = [np.asarray(r, dtype=np.float64) for r in records]
    if not records:
        raise ShapeMismatch("empty history")
    if len(alpha) != len(records) or len(phi) != len(records):
        raise ShapeMismatch("alpha and phi must cover k = 0..t")
    total = None
    for r_k, a_k, phi_k in zip(records, alpha, phi):
        placed = r_k if phi_k is None else np.asarray(phi_k, dtype=np.float64) @ r_k
        gate = np.asarray(a_k, dtype=np.float64)
        if gate.shape != (placed.shape[0],):
            raise ShapeMismatch("gate length must match the placed record rows")
        term = gate[:, None] * placed
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class InfluenceData:
    """Per-stage influence relations as boolean matrices.

    relations[t][x, u] is true when row u can influence the stage-t
    update at row x in one step: the stage admissibility relation
    itself (Markov dependence).
    """

    relations: tuple

    @property
    def n(self) -> int:
        return self.relations[0].shape[0] if self.relations else 0


def influence_relation(masks) -> InfluenceData:
    relations = []
    n = None
    for i, mask in enumerate(masks):
        m = np.asarray(mask)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NonSquareMask(f"stage {i} mask has shape {m.shape}")
        if n is None:
            n = m.shape[0]
        elif m.shape[0] != n:
            raise NonSquareMask("stage masks disagree on the carrier size")
        relations.append(m.astype(bool))
    return InfluenceData(relations=tuple(relations))


def predecessor_set(inf: InfluenceData, x: int, t: int) -> set:
    """Rows that can reach x through t composed stages of influence.

    Pre_t(x) composes the relations for stages t-1 down to 0 by boolean
    matrix-vector products; Pre_0(x) = {x}.
    """
    if not inf.relations:
        raise IndexOutOfRange("no stages recorded")
    n = inf.n
    if not 0 <= x < n:
        raise IndexOutOfRange(f"row {x} out of range for n={n}")
    start = np.zeros((1, n))
    start[0, x] = 1.0
    return _reachable(inf, start, t)[0]


def predecessor_sets(inf: InfluenceData, t: int) -> list:
    """Pre_t(x) for every row x, in row order, one matrix product per stage."""
    if not inf.relations:
        raise IndexOutOfRange("no stages recorded")
    return _reachable(inf, np.eye(inf.n), t)


def _reachable(inf: InfluenceData, start: np.ndarray, t: int) -> list:
    # start is a (k, n) 0/1 matrix. A product entry counts paths of one
    # step, at most n, so float64 BLAS is exact and > 0 is the boolean
    # product.
    if not 0 <= t <= len(inf.relations):
        raise IndexOutOfRange(f"depth {t} out of range")
    reach = start
    for s in range(t - 1, -1, -1):
        reach = (reach @ inf.relations[s].astype(np.float64) > 0).astype(np.float64)
    return [set(np.flatnonzero(row).tolist()) for row in reach]


@dataclass(frozen=True)
class StageTrace:
    """Records R_0..R_T with the per-stage updates, masks, and carriers."""

    records: tuple
    updates: tuple
    masks: tuple
    carrier_ids: tuple


@dataclass(frozen=True)
class ScheduleStep:
    """One schedule entry: optional coarse-graining, then a stage.

    refine pools the records (mean within buckets) and pushes the
    working admissible relation forward before the stage runs. mask
    overrides the working relation for this and later stages; with
    neither given the previous working relation carries over.
    """

    attn: AttentionParams
    ffn: FfnParams
    mask: np.ndarray | None = None
    refine: RefinementMap | None = None


def _pool_records(records: np.ndarray, refine: RefinementMap) -> np.ndarray:
    if records.shape[0] != refine.n_fine:
        raise CarrierMismatch(
            f"records have {records.shape[0]} rows, refinement expects {refine.n_fine}"
        )
    pooled = np.zeros((refine.n_coarse, records.shape[1]))
    np.add.at(pooled, refine.map, records)
    counts = np.bincount(refine.map, minlength=refine.n_coarse)
    return pooled / counts[:, None]


def _push_mask(mask: np.ndarray, refine: RefinementMap) -> np.ndarray:
    indicator = EvidenceKernel(mask.astype(np.float64), mask)
    return pushforward_kernel(indicator, refine, refine).mask


def run_schedule(initial, schedule, cfg: StagedConfig, carrier_id: str = "base") -> StageTrace:
    """Execute a schedule of stages with optional carrier merges."""
    current = np.asarray(initial, dtype=np.float64)
    if current.ndim != 2:
        raise ShapeMismatch("initial records must be an n x d matrix")
    working_mask = None
    records = [current]
    updates = []
    masks = []
    carrier_ids = [carrier_id]
    for step in schedule:
        if step.refine is not None:
            if step.refine.fine != carrier_id:
                raise CarrierMismatch(
                    f"refinement leaves {step.refine.fine!r} but the run is on "
                    f"{carrier_id!r}"
                )
            current = _pool_records(current, step.refine)
            if working_mask is not None:
                working_mask = _push_mask(working_mask, step.refine)
            carrier_id = step.refine.coarse
        if step.mask is not None:
            working_mask = np.asarray(step.mask, dtype=bool)
        stage_mask = (
            working_mask
            if working_mask is not None
            else np.ones((current.shape[0], current.shape[0]), dtype=bool)
        )
        if stage_mask.shape != (current.shape[0], current.shape[0]):
            raise CarrierMismatch(
                f"working mask shape {stage_mask.shape} does not fit carrier of "
                f"size {current.shape[0]}"
            )
        nxt, update = _block_with_update(current, step.attn, step.ffn, cfg, stage_mask)
        records.append(nxt)
        updates.append(update)
        masks.append(stage_mask)
        carrier_ids.append(carrier_id)
        current = nxt
    return StageTrace(
        records=tuple(records),
        updates=tuple(updates),
        masks=tuple(masks),
        carrier_ids=tuple(carrier_ids),
    )


def barrier_check(initial, schedule, cfg: StagedConfig, x: int, t: int, u: int, delta) -> bool:
    """Dual run: does perturbing row u of R_0 change the stage-t update at x?

    Runs schedule[:t] from the initial and from the perturbed records
    and returns True when the stage-t updates at x are bitwise
    identical. Whenever u lies outside Pre_t(x) (composed stage masks),
    identical is the guaranteed outcome; inside the set a difference is
    typical but not promised.
    """
    perturbed = np.array(initial, dtype=np.float64)
    if perturbed.ndim != 2:
        raise ShapeMismatch("initial records must be an n x d matrix")
    if not 0 <= u < perturbed.shape[0]:
        raise IndexOutOfRange(f"row {u} out of range for the initial records")
    if not 1 <= t <= len(schedule):
        raise IndexOutOfRange(f"stage index {t} out of range")
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim == 1:
        perturbed[u] = perturbed[u] + delta
    elif delta.ndim == 2 and delta.shape == perturbed.shape:
        touched = np.flatnonzero(np.any(delta != 0, axis=1))
        if not set(touched.tolist()) <= {u}:
            raise ValueError("matrix perturbation touches rows other than u")
        perturbed = perturbed + delta
    else:
        raise ShapeMismatch("perturbation must be a row vector or a full matrix")
    base = run_schedule(initial, schedule[:t], cfg).updates[t - 1]
    if not 0 <= x < base.shape[0]:
        raise IndexOutOfRange(f"row {x} out of range for the stage-{t} carrier")
    bumped = run_schedule(perturbed, schedule[:t], cfg).updates[t - 1]
    return bool(np.array_equal(base[x], bumped[x]))
