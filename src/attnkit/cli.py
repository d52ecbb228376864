"""Command line front end: pipeline runner and invariant-check harness.

Everything on stdout is canonical JSON (sorted keys, fixed layout) so a
fixed config and seed produce byte-identical output; progress lines and
wall times go to stderr. Exit codes: 0 success, 2 configuration error,
3 numeric or convergence failure, 4 invariant failure. The GA_SEED
environment variable overrides every other seed source.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    plan_to_conditional,
    row_anchor,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from .carrier import RefinementMap, pushforward_kernel
from .checks import SUITES, run_checks
from .errors import (
    AttnKitError,
    ConfigInvalid,
    EmptyCol,
    EmptyRow,
    Infeasible,
    InvalidBudget,
    NoConvergence,
    UnknownSuite,
    ZeroMarginal,
)
from .gauge import CenteredDecomposition, center_scores, scale_kernel
from .lowrank import LowRankChart, score_normal_form
from .matio import (
    dump_canonical,
    load_json,
    mask_from_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)
from .operator import AttentionParams, FfnParams, ValueField, attention, ffn_as_ga
from .score import BaselinePrior, EvidenceKernel, Link, MaskedScore, assemble_kernel
from .staged import (
    ChartSpec,
    CompSpec,
    ScheduleStep,
    StagedConfig,
    influence_relation,
    predecessor_sets,
    run_schedule,
)

_NUMERIC_ERRORS = (NoConvergence, Infeasible, EmptyRow, EmptyCol, ZeroMarginal)


def _seed_from_env(default: int) -> int:
    raw = os.environ.get("GA_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigInvalid("GA_SEED", f"not an integer: {raw!r}") from exc


def _resolve_input(spec, base_dir: Path, where: str):
    """One named input: inline matrix, inline vector, or file reference."""
    if isinstance(spec, dict) and "file" in spec:
        target = base_dir / spec["file"]
        if not target.exists():
            raise ConfigInvalid(where, f"referenced file {str(target)!r} does not exist")
        return _resolve_input(load_json(target), base_dir, where)
    if isinstance(spec, dict) and "rows" in spec:
        return matrix_from_json(spec, where)
    if isinstance(spec, list):
        if spec and isinstance(spec[0], list):
            return matrix_from_json(spec, where)
        return vector_from_json(spec, where)
    if isinstance(spec, dict) and "values" in spec:
        return vector_from_json(spec, where)
    raise ConfigInvalid(where, "expected a matrix, a vector, or a file reference")


def _ctx_lookup(ctx, name, where: str):
    if not isinstance(name, str):
        raise ConfigInvalid(where, "expected the name of an input or stage output")
    if name not in ctx:
        raise ConfigInvalid(where, f"unknown input {name!r}")
    return ctx[name]


def _as_matrix_pair(obj, where: str):
    if isinstance(obj, (EvidenceKernel, ConditionalFamily, TransportPlan)):
        return obj.values, obj.mask
    if isinstance(obj, tuple) and len(obj) == 2:
        return obj
    if isinstance(obj, np.ndarray) and obj.ndim == 2:
        return obj, np.ones(obj.shape, dtype=bool)
    raise ConfigInvalid(where, "value is not matrix-shaped")


def _matrix_arg(stage, key, ctx, where: str):
    if key not in stage:
        raise ConfigInvalid(f"{where}.{key}", "missing required field")
    value = stage[key]
    if isinstance(value, str):
        return _as_matrix_pair(_ctx_lookup(ctx, value, f"{where}.{key}"), f"{where}.{key}")
    return matrix_from_json(value, f"{where}.{key}")


def _vector_arg(stage, key, ctx, where: str):
    if key not in stage:
        raise ConfigInvalid(f"{where}.{key}", "missing required field")
    value = stage[key]
    if isinstance(value, str):
        got = _ctx_lookup(ctx, value, f"{where}.{key}")
        if isinstance(got, np.ndarray) and got.ndim == 1:
            return got
        raise ConfigInvalid(f"{where}.{key}", f"{value!r} is not a vector")
    return vector_from_json(value, f"{where}.{key}")


@contextmanager
def _config_errors(where: str):
    """A value a constructor rejects, or a key it misses, is a config
    error on that field, not a traceback."""
    try:
        yield
    except KeyError as exc:
        raise ConfigInvalid(where, f"missing field {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise ConfigInvalid(where, str(exc)) from exc


def _kernel_arg(stage, key, ctx, where: str) -> EvidenceKernel:
    values, mask = _matrix_arg(stage, key, ctx, where)
    obj = stage[key]
    if isinstance(obj, str):
        found = ctx[obj]
        if isinstance(found, EvidenceKernel):
            return found
    with _config_errors(f"{where}.{key}"):
        return EvidenceKernel(np.where(mask, values, 0.0), mask)


def _link_from_spec(spec, where: str) -> Link:
    if spec is None:
        return Link("exp")
    if not isinstance(spec, dict):
        raise ConfigInvalid(where, "link must be an object")
    with _config_errors(where):
        return Link(
            kind=spec.get("kind", "exp"),
            tau=float(spec.get("tau", 1.0)),
            slope=float(spec.get("slope", 1.0)),
        )


def _op_assemble_kernel(stage, ctx, where):
    values, mask = _matrix_arg(stage, "scores", ctx, where)
    link = _link_from_spec(stage.get("link"), f"{where}.link")
    prior = None
    if "prior" in stage:
        p_values, p_mask = _matrix_arg(stage, "prior", ctx, where)
        if not p_mask.all():
            raise ConfigInvalid(f"{where}.prior", "prior cannot contain exclusions")
        prior = BaselinePrior(p_values)
    return assemble_kernel(MaskedScore(values, mask), prior, link)


def _op_row_anchor(stage, ctx, where):
    return row_anchor(_kernel_arg(stage, "kernel", ctx, where))


def _marginals_arg(stage, ctx, where) -> Marginals:
    masses = []
    for key in ("mu_out", "mu_in"):
        mu = _vector_arg(stage, key, ctx, where)
        if mu.size == 0 or not (np.isfinite(mu).all() and (mu > 0).all()):
            raise ConfigInvalid(
                f"{where}.{key}", "expected a nonempty vector of finite, positive masses"
            )
        masses.append(mu)
    return Marginals(*masses)


def _field(where, key) -> str:
    return f"{where}.{key}" if where else key


def _int_field(stage, key, default, where) -> int:
    """An integer field, read strictly: 2.7, "ten" and true are errors,
    not 2, a traceback and 1. An empty where names a top-level key."""
    value = stage.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(_field(where, key), f"expected an integer, got {value!r}")
    return value


def _float_field(stage, key, default, where) -> float:
    value = stage.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigInvalid(_field(where, key), f"expected a number, got {value!r}")
    return float(value)


def _penalty_field(stage, key, where) -> float:
    value = _float_field(stage, key, 1.0, where)
    if not value > 0:
        raise ConfigInvalid(f"{where}.{key}", f"must be strictly positive, got {value!r}")
    return value


@contextmanager
def _solver_budget(where):
    """A tol or max_iter the solver rejects is a config error on that
    field, not a traceback."""
    try:
        yield
    except InvalidBudget as exc:
        raise ConfigInvalid(f"{where}.{exc.field}", str(exc)) from exc


def _op_sinkhorn_balanced(stage, ctx, where):
    with _solver_budget(where):
        return sinkhorn_balanced(
            _kernel_arg(stage, "kernel", ctx, where),
            _marginals_arg(stage, ctx, where),
            tol=_float_field(stage, "tol", 1e-9, where),
            max_iter=_int_field(stage, "max_iter", 10000, where),
        )


def _op_sinkhorn_unbalanced(stage, ctx, where):
    with _solver_budget(where):
        return sinkhorn_unbalanced(
            _kernel_arg(stage, "kernel", ctx, where),
            _marginals_arg(stage, ctx, where),
            lam_out=_penalty_field(stage, "lam_out", where),
            lam_in=_penalty_field(stage, "lam_in", where),
            tol=_float_field(stage, "tol", 1e-9, where),
            max_iter=_int_field(stage, "max_iter", 10000, where),
        )


def _op_plan_update(stage, ctx, where):
    plan = _ctx_lookup(ctx, stage.get("plan"), f"{where}.plan")
    if not isinstance(plan, TransportPlan):
        raise ConfigInvalid(f"{where}.plan", "referenced value is not a plan")
    values, _ = _matrix_arg(stage, "values", ctx, where)
    return plan.values @ values


def _op_conditional_update(stage, ctx, where):
    family = _ctx_lookup(ctx, stage.get("family"), f"{where}.family")
    if isinstance(family, TransportPlan):
        family = plan_to_conditional(family, family.row_marginal)
    if not isinstance(family, ConditionalFamily):
        raise ConfigInvalid(f"{where}.family", "referenced value is not a conditional")
    values, _ = _matrix_arg(stage, "values", ctx, where)
    return family.values @ values


def _op_center_scores(stage, ctx, where):
    values, mask = _matrix_arg(stage, "scores", ctx, where)
    if not mask.all():
        raise ConfigInvalid(f"{where}.scores", "centering needs a fully finite matrix")
    with _config_errors(f"{where}.mode"):
        return center_scores(values, mode=stage.get("mode", "double"))


def _op_score_normal_form(stage, ctx, where):
    values, mask = _matrix_arg(stage, "scores", ctx, where)
    if not mask.all():
        raise ConfigInvalid(f"{where}.scores", "charting needs a fully finite matrix")
    if "rank" not in stage:
        raise ConfigInvalid(f"{where}.rank", "missing required field")
    return score_normal_form(values, _int_field(stage, "rank", None, where))


def _refinement_from_spec(spec, where: str) -> RefinementMap:
    if not isinstance(spec, dict):
        raise ConfigInvalid(where, "refinement must be an object")
    with _config_errors(where):
        return RefinementMap(
            fine=spec.get("fine", "fine"),
            coarse=spec.get("coarse", "coarse"),
            map=[int(v) for v in spec["map"]],
            n_coarse=int(spec["n_coarse"]),
        )


def _op_pushforward(stage, ctx, where):
    kernel = _kernel_arg(stage, "kernel", ctx, where)
    rho_x = _refinement_from_spec(stage.get("map_x"), f"{where}.map_x")
    rho_y = (
        _refinement_from_spec(stage["map_y"], f"{where}.map_y")
        if "map_y" in stage
        else rho_x
    )
    return pushforward_kernel(kernel, rho_x, rho_y)


def _op_scale_kernel(stage, ctx, where):
    return scale_kernel(
        _kernel_arg(stage, "kernel", ctx, where),
        _vector_arg(stage, "a", ctx, where),
        _vector_arg(stage, "b", ctx, where),
    )


def _attention_params(stage, ctx, where) -> AttentionParams:
    w_q, _ = _matrix_arg(stage, "w_q", ctx, where)
    w_k, _ = _matrix_arg(stage, "w_k", ctx, where)
    w_v, _ = _matrix_arg(stage, "w_v", ctx, where)
    mask = None
    if "mask" in stage:
        value = stage["mask"]
        if isinstance(value, str):
            _, mask = _as_matrix_pair(
                _ctx_lookup(ctx, value, f"{where}.mask"), f"{where}.mask"
            )
        else:
            mask = mask_from_json(value, f"{where}.mask")
    prior = None
    if "prior" in stage:
        p_values, p_mask = _matrix_arg(stage, "prior", ctx, where)
        if not p_mask.all():
            raise ConfigInvalid(f"{where}.prior", "prior cannot contain exclusions")
        prior = BaselinePrior(p_values)
    key_bias = (
        _vector_arg(stage, "key_bias", ctx, where) if "key_bias" in stage else None
    )
    with _config_errors(where):
        return AttentionParams(
            w_q=w_q,
            w_k=w_k,
            w_v=w_v,
            tau=float(stage.get("tau", 1.0)),
            key_bias=key_bias,
            prior=prior,
            mask=mask,
        )


def _op_attention(stage, ctx, where):
    embeddings, _ = _matrix_arg(stage, "embeddings", ctx, where)
    params = _attention_params(stage, ctx, where)
    family, out = attention(embeddings, params)
    return {"weights": family, "output": out}


_OPS = {
    "assemble_kernel": _op_assemble_kernel,
    "row_anchor": _op_row_anchor,
    "sinkhorn_balanced": _op_sinkhorn_balanced,
    "sinkhorn_unbalanced": _op_sinkhorn_unbalanced,
    "plan_update": _op_plan_update,
    "conditional_update": _op_conditional_update,
    "center_scores": _op_center_scores,
    "score_normal_form": _op_score_normal_form,
    "pushforward_kernel": _op_pushforward,
    "scale_kernel": _op_scale_kernel,
    "attention": _op_attention,
}


def _serialize(obj):
    if isinstance(obj, EvidenceKernel):
        return {"kind": "kernel", "matrix": matrix_to_json(obj.values, obj.mask)}
    if isinstance(obj, ConditionalFamily):
        return {"kind": "conditional", "matrix": matrix_to_json(obj.values, obj.mask)}
    if isinstance(obj, TransportPlan):
        return {
            "kind": "plan",
            "matrix": matrix_to_json(obj.values, obj.mask),
            "converged": obj.converged,
            "iterations": obj.iterations,
            "marginal_error": obj.marginal_error,
            "row_marginal": vector_to_json(obj.row_marginal),
            "col_marginal": vector_to_json(obj.col_marginal),
        }
    if isinstance(obj, CenteredDecomposition):
        return {
            "kind": "centered",
            "grand_mean": obj.grand_mean,
            "row_means": vector_to_json(obj.row_means),
            "col_means": vector_to_json(obj.col_means),
            "interaction": matrix_to_json(obj.interaction),
            "key_bias": vector_to_json(obj.key_bias),
        }
    if isinstance(obj, LowRankChart):
        return {
            "kind": "chart",
            "q": matrix_to_json(obj.Q),
            "l": matrix_to_json(obj.L),
            "rank": obj.rank,
            "frobenius_residual": obj.frobenius_residual,
            "key_bias": None if obj.key_bias is None else vector_to_json(obj.key_bias),
            "degenerate": obj.degenerate,
        }
    if isinstance(obj, dict):
        return {k: _serialize(v) for k, v in obj.items()}
    if isinstance(obj, tuple) and len(obj) == 2:
        return {"kind": "matrix", "matrix": matrix_to_json(obj[0], obj[1])}
    arr = np.asarray(obj)
    if arr.ndim == 2:
        return {"kind": "matrix", "matrix": matrix_to_json(arr)}
    if arr.ndim == 1:
        return {"kind": "vector", "values": vector_to_json(arr)}
    raise ConfigInvalid("output", f"cannot serialize object of type {type(obj).__name__}")


def _load_object(path: str) -> dict:
    root = load_json(path)
    if not isinstance(root, dict):
        raise ConfigInvalid(path, "input root must be an object")
    return root


def _run_pipeline(config_path: str, out_dir: str | None) -> tuple[str, int]:
    """Run a pipeline config; return the canonical report text and the
    exit code. With out_dir, the same text goes to report.json."""
    config = _load_object(config_path)
    base_dir = Path(config_path).parent
    seed = _seed_from_env(_int_field(config, "seed", 0, ""))

    ctx: dict = {}
    for name, spec in (config.get("inputs") or {}).items():
        ctx[name] = _resolve_input(spec, base_dir, f"inputs.{name}")

    stages = config.get("stages")
    if not isinstance(stages, list):
        raise ConfigInvalid("stages", "config must carry a list of stages")
    stage_reports = []
    for i, stage in enumerate(stages):
        where = f"stages[{i}]"
        if not isinstance(stage, dict):
            raise ConfigInvalid(where, "stage must be an object")
        op = stage.get("op")
        if op not in _OPS:
            known = ", ".join(sorted(_OPS))
            raise ConfigInvalid(f"{where}.op", f"unknown operation {op!r}; known: {known}")
        out_name = stage.get("out")
        if not isinstance(out_name, str) or not out_name:
            raise ConfigInvalid(f"{where}.out", "stage needs an output name")
        if out_name in ctx:
            raise ConfigInvalid(f"{where}.out", f"name {out_name!r} already bound")
        result = _OPS[op](stage, ctx, where)
        if isinstance(result, dict):
            ctx[out_name] = result["output"]
            for extra, value in result.items():
                if extra != "output":
                    ctx[f"{out_name}_{extra}"] = value
        else:
            ctx[out_name] = result
        stage_reports.append({"op": op, "out": out_name, "result": _serialize(result)})

    report = {
        "version": config.get("version", "1"),
        "tool_version": __version__,
        "seed": seed,
        "stages": stage_reports,
    }

    exit_code = 0
    suites = config.get("checks") or []
    if suites:
        check_reports = run_checks(suites, seed=seed)
        report["checks"] = [r.as_json() for r in check_reports]
        if not all(r.passed for r in check_reports):
            exit_code = 4

    text = dump_canonical(report)
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "report.json").write_text(text)
        for entry, stage_text in zip(stage_reports, _stage_results(text)):
            (out_path / f"{entry['out']}.json").write_text(stage_text)
    return text, exit_code


def _stage_results(text: str):
    """Yield dump_canonical(result) of each stage, in order, cut from
    the report text instead of formatting every float again.

    A stage result opens after the six-space key `"result": ` and closes
    before the four-space `}` of its stage; every line inside it is
    indented deeper, and no canonical string holds a raw newline, so
    dropping six spaces after each newline re-indents it to the top.
    """
    key = '\n      "result": '
    pos = text.find('\n  "stages": [')
    while (pos := text.find(key, pos)) >= 0:
        end = text.index("\n    }", pos)
        yield text[pos + len(key) : end].replace("\n      ", "\n") + "\n"
        pos = end


def _cmd_run(args) -> int:
    started = time.perf_counter()
    text, exit_code = _run_pipeline(args.config, args.out)
    sys.stdout.write(text)
    sys.stderr.write(f"pipeline wall time: {time.perf_counter() - started:.3f}s\n")
    return exit_code


def _cmd_check(args) -> int:
    suites = args.suite or list(SUITES)
    seed = _seed_from_env(args.seed)
    started = time.perf_counter()
    reports = run_checks(suites, seed=seed, tol=args.tol)
    payload = {
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "suites": [r.as_json() for r in reports],
    }
    sys.stdout.write(dump_canonical(payload))
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        sys.stderr.write(
            f"suite {r.suite}: {verdict} ({len(r.properties)} properties, "
            f"{r.seconds:.2f}s)\n"
        )
    sys.stderr.write(f"check wall time: {time.perf_counter() - started:.3f}s\n")
    return 0 if payload["passed"] else 4


def _cmd_attn(args) -> int:
    spec = _load_object(args.inputs)
    result = _op_attention(spec, {}, "attn")
    sys.stdout.write(dump_canonical(_serialize(result)))
    return 0


def _cmd_chart(args) -> int:
    spec = _load_object(args.inputs)
    chart = _op_score_normal_form(spec, {}, "chart")
    sys.stdout.write(dump_canonical(_serialize(chart)))
    return 0


def _cmd_anchor(args) -> int:
    spec = _load_object(args.inputs)
    mode = spec.get("mode", "row")
    if mode == "row":
        result = _op_row_anchor(spec, {}, "anchor")
    elif mode == "balanced":
        result = _op_sinkhorn_balanced(spec, {}, "anchor")
    elif mode == "unbalanced":
        result = _op_sinkhorn_unbalanced(spec, {}, "anchor")
    else:
        raise ConfigInvalid("anchor.mode", f"unknown mode {mode!r}")
    sys.stdout.write(dump_canonical(_serialize(result)))
    return 0


def _chart_spec(spec, where: str) -> ChartSpec:
    if spec is None:
        return ChartSpec()
    with _config_errors(where):
        return ChartSpec(spec.get("kind", "rms_norm"), float(spec.get("eps", 1e-6)))


def _comp_spec(spec, where: str) -> CompSpec:
    if spec is None:
        return CompSpec()
    gate = None
    if "gate" in spec:
        gate, _ = matrix_from_json(spec["gate"], f"{where}.gate")
    with _config_errors(where):
        return CompSpec(
            kind=spec.get("kind", "additive"),
            gate=gate,
            norm=spec.get("norm", "rms_norm"),
            eps=float(spec.get("eps", 1e-6)),
        )


def _ffn_params(spec, where: str) -> FfnParams:
    with _config_errors(where):
        return FfnParams(
            w1=matrix_from_json(spec["w1"], f"{where}.w1")[0],
            b1=vector_from_json(spec["b1"], f"{where}.b1"),
            w2=matrix_from_json(spec["w2"], f"{where}.w2")[0],
            b2=vector_from_json(spec["b2"], f"{where}.b2"),
            activation=spec.get("activation", "gelu"),
        )


def _cmd_stage_run(args) -> int:
    spec = _load_object(args.inputs)
    initial, initial_mask = matrix_from_json(spec.get("initial"), "stage-run.initial")
    if not initial_mask.all():
        raise ConfigInvalid("stage-run.initial", "records must be fully finite")
    cfg_spec = spec.get("cfg") or {}
    zero_update_on_empty = cfg_spec.get("zero_update_on_empty", False)
    if not isinstance(zero_update_on_empty, bool):
        raise ConfigInvalid(
            "stage-run.cfg.zero_update_on_empty",
            f"expected true or false, got {zero_update_on_empty!r}",
        )
    cfg = StagedConfig(
        chart=_chart_spec(cfg_spec.get("chart"), "stage-run.cfg.chart"),
        comp=_comp_spec(cfg_spec.get("comp"), "stage-run.cfg.comp"),
        zero_update_on_empty=zero_update_on_empty,
    )
    schedule = []
    raw_steps = spec.get("schedule")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ConfigInvalid("stage-run.schedule", "expected a nonempty list of steps")
    for i, step in enumerate(raw_steps):
        where = f"stage-run.schedule[{i}]"
        if not isinstance(step, dict) or "attn" not in step or "ffn" not in step:
            raise ConfigInvalid(where, "each step needs attn and ffn parameter objects")
        mask = (
            mask_from_json(step["mask"], f"{where}.mask") if "mask" in step else None
        )
        refine = (
            _refinement_from_spec(step["refine"], f"{where}.refine")
            if "refine" in step
            else None
        )
        schedule.append(
            ScheduleStep(
                attn=_attention_params(step["attn"], {}, f"{where}.attn"),
                ffn=_ffn_params(step["ffn"], f"{where}.ffn"),
                mask=mask,
                refine=refine,
            )
        )
    trace = run_schedule(
        initial, schedule, cfg, carrier_id=spec.get("carrier", "base")
    )
    payload = {
        "records": [matrix_to_json(r) for r in trace.records],
        "updates": [matrix_to_json(u) for u in trace.updates],
        "masks": [
            matrix_to_json(m.astype(np.float64)) for m in trace.masks
        ],
        "carrier_ids": list(trace.carrier_ids),
    }
    sizes = {m.shape[0] for m in trace.masks}
    if len(sizes) == 1:
        inf = influence_relation(list(trace.masks))
        depth = len(trace.masks)
        payload["influence"] = {
            "mode": "markov",
            "depth": depth,
            "predecessors": [sorted(pre) for pre in predecessor_sets(inf, depth)],
        }
    sys.stdout.write(dump_canonical(payload))
    return 0


def _cmd_ffn_check(args) -> int:
    spec = _load_object(args.inputs)
    params = _ffn_params(spec, "ffn-check")
    tolerance = _float_field(spec, "tolerance", 1e-10, "ffn-check")
    deviations = []
    if "x" in spec:
        xs = [vector_from_json(spec["x"], "ffn-check.x")]
    else:
        samples = _int_field(spec, "samples", 20, "ffn-check")
        if samples < 1:
            raise ConfigInvalid("ffn-check.samples", f"must be at least 1, got {samples}")
        seed = _seed_from_env(_int_field(spec, "seed", 0, "ffn-check"))
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=params.d_model) for _ in range(samples)]
    for x in xs:
        direct, ga_form = ffn_as_ga(x, params)
        deviations.append(float(np.abs(direct - ga_form).max()))
    worst = max(deviations)
    payload = {
        "samples": len(xs),
        "max_deviation": worst,
        "tolerance": tolerance,
        "passed": worst <= tolerance,
    }
    sys.stdout.write(dump_canonical(payload))
    return 0 if payload["passed"] else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ga",
        description=(
            "Masked-kernel attention pipelines: run configured operator "
            "chains and verify the identities they rely on."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a pipeline config")
    run_p.add_argument("config", help="path to the pipeline JSON")
    run_p.add_argument("--out", help="directory for report and stage outputs")
    run_p.set_defaults(fn=_cmd_run)

    check_p = sub.add_parser("check", help="run invariant suites")
    check_p.add_argument(
        "--suite",
        action="append",
        help="suite name (repeatable); default is every suite",
    )
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override every property tolerance (0 surfaces fp witnesses)",
    )
    check_p.set_defaults(fn=_cmd_check)

    for name, fn, blurb in (
        ("attn", _cmd_attn, "one attention call from a JSON input file"),
        ("chart", _cmd_chart, "low-rank normal form of a score matrix"),
        ("anchor", _cmd_anchor, "anchor a kernel (row, balanced, unbalanced)"),
        ("stage-run", _cmd_stage_run, "run a staged schedule and dump the trace"),
        ("ffn-check", _cmd_ffn_check, "verify the feedforward kernel form"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("inputs", help="path to the input JSON")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigInvalid, UnknownSuite) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except AttnKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
