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
unchanged. The barrier suite of the property harness checks exactly
that, comparing one unperturbed run of the schedule with one run per
perturbed row. Note the mask semantics this relies on: the residual
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


def _normalize(r: np.ndarray, kind: str, eps) -> tuple[np.ndarray, np.ndarray]:
    """The charted rows and their scale: r over its rms (rms_norm), or
    r minus its mean over its standard deviation (layer_norm)."""
    if kind == "rms_norm":
        # The sum over the count is .mean(axis=1) bit for bit, without
        # its per-call overhead.
        scale = np.sqrt((r * r).sum(axis=1) / r.shape[1] + eps)
        return r / scale[:, None], scale
    scale = np.sqrt(r.var(axis=1) + eps)
    return (r - r.mean(axis=1, keepdims=True)) / scale[:, None], scale


def apply_chart(records, chart: ChartSpec) -> np.ndarray:
    r = np.asarray(records, dtype=np.float64)
    if chart.kind == "identity":
        return r
    # Past ~1e154 a square overflows and the scale is inf. Such a row is
    # charted again from r/m with eps/m^2, m its largest absolute entry:
    # the same chart in exact arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        out, scale = _normalize(r, chart.kind, chart.eps)
        if not np.isfinite(scale).all():
            huge = ~np.isfinite(scale)
            m = np.abs(r[huge]).max(axis=1)
            out[huge] = _normalize(r[huge] / m[:, None], chart.kind, chart.eps / (m * m))[0]
    return out


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


def predecessor_sets(inf: InfluenceData, t: int) -> list:
    """Pre_t(x) for every row x, in row order: the rows that can reach x
    through t composed stages of influence, one matrix product per
    stage; Pre_0(x) = {x}."""
    if not inf.relations:
        raise IndexOutOfRange("no stages recorded")
    if not 0 <= t <= len(inf.relations):
        raise IndexOutOfRange(f"depth {t} out of range")
    # A product entry counts paths of one step, at most n, so float64
    # BLAS is exact and > 0 is the boolean product.
    reach = np.eye(inf.n)
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


def run_schedule(
    initial, schedule, cfg: StagedConfig = StagedConfig(), carrier: str = "base"
) -> StageTrace:
    """Execute a schedule of stages with optional carrier merges, starting
    on the carrier named carrier."""
    current = np.asarray(initial, dtype=np.float64)
    if current.ndim != 2:
        raise ShapeMismatch("initial records must be an n x d matrix")
    working_mask = None
    records = [current]
    updates = []
    masks = []
    carrier_ids = [carrier]
    for step in schedule:
        if step.refine is not None:
            if step.refine.fine != carrier:
                raise CarrierMismatch(
                    f"refinement leaves {step.refine.fine!r} but the run is on "
                    f"{carrier!r}"
                )
            current = _pool_records(current, step.refine)
            if working_mask is not None:
                working_mask = _push_mask(working_mask, step.refine)
            carrier = step.refine.coarse
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
        carrier_ids.append(carrier)
        current = nxt
    return StageTrace(
        records=tuple(records),
        updates=tuple(updates),
        masks=tuple(masks),
        carrier_ids=tuple(carrier_ids),
    )
