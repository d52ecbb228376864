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

import numpy as np

from .carrier import RefinementMap, pushforward_kernel
from .operator import AttentionParams, FfnParams, attention, ffn_apply
from .score import EvidenceKernel, Frozen


class ChartSpec(Frozen):
    """How a record is charted before the update reads it."""

    def __init__(self, kind: str = "rms_norm", eps: float = 1e-6):
        if kind not in ("identity", "rms_norm", "layer_norm"):
            raise ValueError(f"unknown chart kind {kind!r}")
        if kind == "identity" and eps != 1e-6:
            raise ValueError(f"chart kind 'identity' takes no eps, got {eps!r}")
        if not eps > 0:
            raise ValueError(f"eps must be strictly positive, got {eps!r}")
        self.__dict__.update(kind=kind, eps=eps)


class CompSpec(Frozen):
    """How an update is composed back into the record.

    Only gated reads gate, a matrix of shape (2 d, d): the gate is an
    elementwise sigmoid of its linear map of record and update
    concatenated. Only postnorm reads norm and eps, to renormalize the
    sum; other kinds refuse them unless they hold the default.
    """

    def __init__(self, kind: str = "additive", gate: np.ndarray | None = None,
                 norm: str = "rms_norm", eps: float = 1e-6):
        if kind not in ("additive", "gated", "postnorm"):
            raise ValueError(f"unknown composition kind {kind!r}")
        if kind != "gated" and gate is not None:
            raise ValueError(f"composition kind {kind!r} takes no gate")
        for name, value, default in (("norm", norm, "rms_norm"), ("eps", eps, 1e-6)):
            if kind != "postnorm" and value != default:
                raise ValueError(f"composition kind {kind!r} takes no {name}, got {value!r}")
        if kind == "gated":
            if gate is None:
                raise ValueError("gated composition needs a gate matrix")
            gate = np.asarray(gate, dtype=np.float64)
            if gate.ndim != 2 or gate.shape[0] != 2 * gate.shape[1]:
                raise ValueError("gate matrix must have shape (2 d, d)")
        if norm not in ("rms_norm", "layer_norm"):
            raise ValueError(f"unknown postnorm kind {norm!r}")
        if not eps > 0:
            raise ValueError(f"eps must be strictly positive, got {eps!r}")
        self.__dict__.update(kind=kind, gate=gate, norm=norm, eps=eps)


class StagedConfig(Frozen):
    def __init__(self, chart: ChartSpec = ChartSpec(), comp: CompSpec = CompSpec(),
                 zero_update_on_empty: bool = False):
        self.__dict__.update(chart=chart, comp=comp, zero_update_on_empty=zero_update_on_empty)


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
        raise ValueError("record and update shapes disagree")
    if comp.kind == "additive":
        return r + delta
    if comp.kind == "gated":
        if comp.gate.shape != (2 * r.shape[1], r.shape[1]):
            raise ValueError("gate matrix does not match the record width")
        eta = _sigmoid(np.concatenate([r, delta], axis=1) @ comp.gate)
        return r + eta * delta
    return apply_chart(r + delta, ChartSpec(comp.norm, comp.eps))


def _block_with_update(records, attn, ffn, cfg, mask) -> tuple[np.ndarray, np.ndarray]:
    """The next records and the stage update, attending under mask."""
    r = np.asarray(records, dtype=np.float64)
    if attn.d_v != r.shape[1] or ffn.d_model != r.shape[1]:
        raise ValueError("attention and feedforward widths must match the record")
    _, attn_update = attention(apply_chart(r, cfg.chart), attn, mask, cfg.zero_update_on_empty)
    mid = apply_comp(r, attn_update, cfg.comp)
    ffn_update = ffn_apply(apply_chart(mid, cfg.chart), ffn)
    out = apply_comp(mid, ffn_update, cfg.comp)
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


def run_schedule(
    initial, schedule, cfg: StagedConfig = StagedConfig(), carrier: str = "base"
) -> StageTrace:
    """Execute a schedule of stages with optional carrier merges, starting
    on the carrier named carrier."""
    current = np.asarray(initial, dtype=np.float64)
    if current.ndim != 2:
        raise ValueError("initial records must be an n x d matrix")
    working_mask = None
    records = [current]
    updates = []
    masks = []
    carrier_ids = [carrier]
    for step in schedule:
        if step.refine is not None:
            if step.refine.fine != carrier:
                raise ValueError(
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
            raise ValueError(
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
