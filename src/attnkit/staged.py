"""Depth as staged composition, plus the influence bookkeeping it admits.

One stage charts the current record (identity or a norm), computes an
anchored attention update and adds it back, then does the same with a
rowwise feedforward update: the pre-norm residual block. Stacking
stages gives the usual pre-norm block tower; a schedule may also
coarse-grain the carrier between stages, pooling records within
buckets and pushing the admissible relation forward.
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

import numpy as np

from .carrier import RefinementMap, pushforward_kernel
from .operator import AttentionParams, FfnParams, attention, ffn_apply
from .score import EvidenceKernel, Frozen


class ChartSpec(Frozen):
    """How a record is charted before the update reads it."""

    KINDS = ("identity", "rms_norm", "layer_norm")

    def __init__(self, kind: str = "rms_norm", eps: float = 1e-6):
        if kind not in self.KINDS:
            raise ValueError(f"unknown chart kind {kind!r}")
        if kind == "identity" and eps != 1e-6:
            raise ValueError(f"chart kind 'identity' takes no eps, got {eps!r}")
        if not eps > 0:
            raise ValueError(f"eps must be strictly positive, got {eps!r}")
        self.__dict__.update(kind=kind, eps=eps)


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


def _block_with_update(records, attn, ffn, chart, mask) -> tuple[np.ndarray, np.ndarray]:
    """The next records and the stage update, attending under mask: the
    pre-norm residual block, each update read off the charted record
    and added back to it."""
    r = np.asarray(records, dtype=np.float64)
    if attn.d_v != r.shape[1] or ffn.d_model != r.shape[1]:
        raise ValueError("attention and feedforward widths must match the record")
    mid = r + attention(apply_chart(r, chart), attn, mask)[1]
    out = mid + ffn_apply(apply_chart(mid, chart), ffn)
    return out, out - r


def predecessor_sets(masks, t: int) -> list:
    """Pre_t(x) for every row x, in row order: the rows that can reach x
    through t composed stages, one matrix product per stage, where row u
    can influence the stage-s update at row x in one step when
    masks[s][x, u] holds (Markov dependence); Pre_0(x) = {x}."""
    relations = [np.asarray(mask, dtype=bool) for mask in masks]
    for i, m in enumerate(relations):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"stage {i} mask has shape {m.shape}")
        if m.shape != relations[0].shape:
            raise ValueError("stage masks disagree on the carrier size")
    if not relations:
        raise ValueError("no stages recorded")
    if not 0 <= t <= len(relations):
        raise ValueError(f"depth {t} out of range")
    # A product entry counts paths of one step, at most n, so float64
    # BLAS is exact and > 0 is the boolean product.
    reach = np.eye(len(relations[0]))
    for s in range(t - 1, -1, -1):
        reach = (reach @ relations[s].astype(np.float64) > 0).astype(np.float64)
    return [set(np.flatnonzero(row).tolist()) for row in reach]


class StageTrace(Frozen):
    """Records R_0..R_T with the per-stage updates, masks, and carriers."""

    def __init__(self, records: tuple, updates: tuple, masks: tuple, carrier_ids: tuple):
        self.__dict__.update(records=records, updates=updates, masks=masks,
                             carrier_ids=carrier_ids)


class ScheduleStep(Frozen):
    """One schedule entry: optional coarse-graining, then a stage.

    refine pools the records (mean within buckets) and pushes the
    working admissible relation forward before the stage runs. mask
    overrides the working relation for this and later stages; with
    neither given the previous working relation carries over.
    """

    def __init__(self, attn: AttentionParams, ffn: FfnParams, mask: np.ndarray | None = None,
                 refine: RefinementMap | None = None):
        self.__dict__.update(attn=attn, ffn=ffn, mask=mask, refine=refine)


def _pool_records(records: np.ndarray, refine: RefinementMap) -> np.ndarray:
    if records.shape[0] != refine.n_fine:
        raise ValueError(
            f"records have {records.shape[0]} rows, refinement expects {refine.n_fine}"
        )
    pooled = np.zeros((refine.n_coarse, records.shape[1]))
    np.add.at(pooled, refine.map, records)
    counts = np.bincount(refine.map, minlength=refine.n_coarse)
    return pooled / counts[:, None]


def _push_mask(mask: np.ndarray, refine: RefinementMap) -> np.ndarray:
    indicator = EvidenceKernel(mask.astype(np.float64), mask)
    return pushforward_kernel(indicator, refine, refine).mask


def run_schedule(initial, schedule, chart: ChartSpec = ChartSpec()) -> StageTrace:
    """Execute a schedule of stages with optional carrier merges, each
    stage charting by chart. The run starts on the carrier "base"; a
    refinement maps the rows of the carrier the run is on, and the run
    continues on the refinement's coarse carrier."""
    current = np.asarray(initial, dtype=np.float64)
    if current.ndim != 2:
        raise ValueError("initial records must be an n x d matrix")
    working_mask = None
    records = [current]
    updates = []
    masks = []
    carrier = "base"
    carrier_ids = [carrier]
    for step in schedule:
        if step.refine is not None:
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
            raise ValueError(
                f"working mask shape {stage_mask.shape} does not fit carrier of "
                f"size {current.shape[0]}"
            )
        nxt, update = _block_with_update(current, step.attn, step.ffn, chart, stage_mask)
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
