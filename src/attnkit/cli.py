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
    NoConvergence,
    NonFinite,
    ShapeMismatch,
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
from .operator import (
    AttentionParams,
    FfnParams,
    ValueField,
    attention,
    conditional_update,
    ffn_as_ga,
    plan_update,
)
from .score import BaselinePrior, EvidenceKernel, Link, MaskedMatrix, MaskedScore, assemble_kernel
from .staged import (
    ChartSpec,
    CompSpec,
    ScheduleStep,
    StagedConfig,
    influence_relation,
    predecessor_sets,
    run_schedule,
)

_NUMERIC_ERRORS = (NoConvergence, Infeasible, EmptyRow, EmptyCol, ZeroMarginal, NonFinite)


def _seed_from_env(seed: int, where: str) -> int:
    """GA_SEED if it is set, else seed, read from where; the one used
    must be a nonnegative integer."""
    raw = os.environ.get("GA_SEED")
    if raw is not None:
        where = "GA_SEED"
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ConfigInvalid(where, f"not an integer: {raw!r}") from exc
    if seed < 0:
        raise ConfigInvalid(where, f"must be nonnegative, got {seed}")
    return seed


def _resolve_input(spec, base_dir: Path, where: str):
    """One named input: inline matrix, inline vector, or file reference."""
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
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
    if isinstance(obj, MaskedMatrix):
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


def _dense_arg(stage, key, ctx, where: str) -> np.ndarray:
    """A matrix field that must be fully finite: '-inf' is an error here."""
    values, mask = _matrix_arg(stage, key, ctx, where)
    if mask.all():
        return values
    raise ConfigInvalid(f"{where}.{key}", "expected a fully finite matrix, without '-inf'")


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
    """A value or a shape a constructor rejects, or a solver budget
    (InvalidBudget names its field: where.tol, where.max_iter), is a
    config error on that field, not a traceback or an error without a
    field. NonFinite is a ValueError too, so nothing run inside these
    blocks may compute attention, a kernel or a feedforward output."""
    try:
        yield
    except (ValueError, ShapeMismatch) as exc:
        field = getattr(exc, "field", None)
        raise ConfigInvalid(where if field is None else f"{where}.{field}", str(exc)) from exc


def _kernel_arg(stage, key, ctx, where: str) -> EvidenceKernel:
    name = stage.get(key)
    if isinstance(name, str) and isinstance(ctx.get(name), EvidenceKernel):
        return ctx[name]
    values, mask = _matrix_arg(stage, key, ctx, where)
    with _config_errors(f"{where}.{key}"):
        return EvidenceKernel(values, mask)


def _prior_arg(stage, ctx, where: str) -> BaselinePrior | None:
    if "prior" not in stage:
        return None
    values = _dense_arg(stage, "prior", ctx, where)
    with _config_errors(f"{where}.prior"):
        return BaselinePrior(values)


def _link_arg(stage, where: str) -> Link:
    spec = _object_field(stage, "link", {}, where)
    where = f"{where}.link"
    with _config_errors(where):
        return Link(
            kind=spec.get("kind", "exp"),
            tau=_float_field(spec, "tau", 1.0, where),
            slope=_float_field(spec, "slope", 1.0, where),
        )


def _op_assemble_kernel(stage, ctx, where):
    values, mask = _matrix_arg(stage, "scores", ctx, where)
    link = _link_arg(stage, where)
    return assemble_kernel(MaskedScore(values, mask), _prior_arg(stage, ctx, where), link)


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


def _typed_field(stage, key, default, where, types, noun):
    """stage[key], or default when it is absent, read strictly: its
    exact JSON type must be one of types, so true is not the integer 1.
    An empty where names a top-level key."""
    value = stage.get(key, default)
    if type(value) not in types:
        raise ConfigInvalid(_field(where, key), f"expected {noun}, got {value!r}")
    return value


def _int_field(stage, key, default, where) -> int:
    """An integer field: 2.7, "ten" and true are errors, not 2, a
    traceback and 1."""
    return _typed_field(stage, key, default, where, (int,), "an integer")


def _float_field(stage, key, default, where) -> float:
    return float(_typed_field(stage, key, default, where, (int, float), "a number"))


def _str_field(stage, key, default, where) -> str:
    return _typed_field(stage, key, default, where, (str,), "a string")


def _object_field(stage, key, default, where) -> dict:
    return _typed_field(stage, key, default, where, (dict,), "a JSON object")


def _penalty_field(stage, key, where) -> float:
    value = _float_field(stage, key, 1.0, where)
    if not value > 0:
        raise ConfigInvalid(f"{where}.{key}", f"must be strictly positive, got {value!r}")
    return value


def _op_sinkhorn_balanced(stage, ctx, where):
    with _config_errors(where):
        return sinkhorn_balanced(
            _kernel_arg(stage, "kernel", ctx, where),
            _marginals_arg(stage, ctx, where),
            tol=_float_field(stage, "tol", 1e-9, where),
            max_iter=_int_field(stage, "max_iter", 10000, where),
        )


def _op_sinkhorn_unbalanced(stage, ctx, where):
    with _config_errors(where):
        return sinkhorn_unbalanced(
            _kernel_arg(stage, "kernel", ctx, where),
            _marginals_arg(stage, ctx, where),
            lam_out=_penalty_field(stage, "lam_out", where),
            lam_in=_penalty_field(stage, "lam_in", where),
            tol=_float_field(stage, "tol", 1e-9, where),
            max_iter=_int_field(stage, "max_iter", 10000, where),
        )


def _value_field_arg(stage, weights: MaskedMatrix, ctx, where) -> ValueField:
    """The values an update integrates, one row per weight column."""
    values = _dense_arg(stage, "values", ctx, where)
    if values.shape[0] != weights.shape[1]:
        raise ConfigInvalid(
            f"{where}.values",
            f"has {values.shape[0]} rows, the weights have {weights.shape[1]} columns",
        )
    return ValueField(values)


def _op_plan_update(stage, ctx, where):
    plan = _ctx_lookup(ctx, stage.get("plan"), f"{where}.plan")
    if not isinstance(plan, TransportPlan):
        raise ConfigInvalid(f"{where}.plan", "referenced value is not a plan")
    return plan_update(plan, _value_field_arg(stage, plan, ctx, where))


def _op_conditional_update(stage, ctx, where):
    family = _ctx_lookup(ctx, stage.get("family"), f"{where}.family")
    if isinstance(family, TransportPlan):
        family = plan_to_conditional(family, family.row_marginal)
    if not isinstance(family, ConditionalFamily):
        raise ConfigInvalid(f"{where}.family", "referenced value is not a conditional")
    return conditional_update(family, _value_field_arg(stage, family, ctx, where))


def _op_center_scores(stage, ctx, where):
    values = _dense_arg(stage, "scores", ctx, where)
    mode = _str_field(stage, "mode", "double", where)
    with _config_errors(f"{where}.mode"):
        return center_scores(values, mode=mode)


def _op_score_normal_form(stage, ctx, where):
    values = _dense_arg(stage, "scores", ctx, where)
    if "rank" not in stage:
        raise ConfigInvalid(f"{where}.rank", "missing required field")
    return score_normal_form(values, _int_field(stage, "rank", None, where))


def _refinement_arg(stage, key, where: str) -> RefinementMap:
    spec = _object_field(stage, key, None, where)
    where = f"{where}.{key}"
    buckets = spec.get("map")
    if type(buckets) is not list or any(type(v) is not int for v in buckets):
        raise ConfigInvalid(f"{where}.map", f"expected a list of integers, got {buckets!r}")
    with _config_errors(where):
        return RefinementMap(
            fine=_str_field(spec, "fine", "fine", where),
            coarse=_str_field(spec, "coarse", "coarse", where),
            map=buckets,
            n_coarse=_int_field(spec, "n_coarse", None, where),
        )


def _op_pushforward(stage, ctx, where):
    kernel = _kernel_arg(stage, "kernel", ctx, where)
    rho_x = _refinement_arg(stage, "map_x", where)
    rho_y = _refinement_arg(stage, "map_y", where) if "map_y" in stage else rho_x
    return pushforward_kernel(kernel, rho_x, rho_y)


def _op_scale_kernel(stage, ctx, where):
    return scale_kernel(
        _kernel_arg(stage, "kernel", ctx, where),
        _vector_arg(stage, "a", ctx, where),
        _vector_arg(stage, "b", ctx, where),
    )


def _attention_params(stage, ctx, where) -> AttentionParams:
    key_bias = (
        _vector_arg(stage, "key_bias", ctx, where) if "key_bias" in stage else None
    )
    with _config_errors(where):
        return AttentionParams(
            w_q=_dense_arg(stage, "w_q", ctx, where),
            w_k=_dense_arg(stage, "w_k", ctx, where),
            w_v=_dense_arg(stage, "w_v", ctx, where),
            tau=_float_field(stage, "tau", 1.0, where),
            key_bias=key_bias,
            prior=_prior_arg(stage, ctx, where),
        )


def _op_attention(stage, ctx, where):
    embeddings = _dense_arg(stage, "embeddings", ctx, where)
    mask = None
    if "mask" in stage:
        value = stage["mask"]
        if isinstance(value, str):
            _, mask = _as_matrix_pair(
                _ctx_lookup(ctx, value, f"{where}.mask"), f"{where}.mask"
            )
        else:
            mask = mask_from_json(value, f"{where}.mask")
    params = _attention_params(stage, ctx, where)
    family, out = attention(embeddings, params, mask)
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
    if isinstance(obj, MaskedMatrix):
        out = {"kind": obj.kind, "matrix": matrix_to_json(obj.values, obj.mask)}
        if isinstance(obj, TransportPlan):
            out.update(
                converged=obj.converged,
                iterations=obj.iterations,
                marginal_error=obj.marginal_error,
                row_marginal=vector_to_json(obj.row_marginal),
                col_marginal=vector_to_json(obj.col_marginal),
            )
        return out
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
    seed = _seed_from_env(_int_field(config, "seed", 0, ""), "seed")
    suites = config.get("checks", [])
    if type(suites) is not list or any(type(suite) is not str for suite in suites):
        raise ConfigInvalid("checks", f"expected a list of suite names, got {suites!r}")

    ctx: dict = {}
    for name, spec in _object_field(config, "inputs", {}, "").items():
        ctx[name] = _resolve_input(spec, base_dir, f"inputs.{name}")

    stages = _typed_field(config, "stages", None, "", (list,), "a list of stages")
    stage_reports = []
    for i, stage in enumerate(stages):
        where = f"stages[{i}]"
        if not isinstance(stage, dict):
            raise ConfigInvalid(where, "stage must be an object")
        op = _str_field(stage, "op", None, where)
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
    if suites:
        try:
            check_reports = run_checks(suites, seed=seed)
        except UnknownSuite as exc:
            raise ConfigInvalid("checks", str(exc)) from exc
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
    seed = _seed_from_env(args.seed, "--seed")
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


_ANCHOR_OPS = {
    "row": "row_anchor",
    "balanced": "sinkhorn_balanced",
    "unbalanced": "sinkhorn_unbalanced",
}


def _cmd_one_stage(args) -> int:
    """`ga attn`, `ga chart` and `ga anchor`: the input object is one
    `ga run` stage of op args.op; anchor picks the op by its mode."""
    spec = _load_object(args.inputs)
    op = args.op
    if op is None:
        mode = _str_field(spec, "mode", "row", "anchor")
        if mode not in _ANCHOR_OPS:
            raise ConfigInvalid("anchor.mode", f"unknown mode {mode!r}")
        op = _ANCHOR_OPS[mode]
    sys.stdout.write(dump_canonical(_serialize(_OPS[op](spec, {}, args.command))))
    return 0


def _chart_spec(spec, where: str) -> ChartSpec:
    with _config_errors(where):
        return ChartSpec(spec.get("kind", "rms_norm"), _float_field(spec, "eps", 1e-6, where))


def _comp_spec(spec, where: str) -> CompSpec:
    gate = _dense_arg(spec, "gate", {}, where) if "gate" in spec else None
    with _config_errors(where):
        return CompSpec(
            kind=spec.get("kind", "additive"),
            gate=gate,
            norm=spec.get("norm", "rms_norm"),
            eps=_float_field(spec, "eps", 1e-6, where),
        )


def _ffn_params(spec, where: str) -> FfnParams:
    with _config_errors(where):
        return FfnParams(
            w1=_dense_arg(spec, "w1", {}, where),
            b1=_vector_arg(spec, "b1", {}, where),
            w2=_dense_arg(spec, "w2", {}, where),
            b2=_vector_arg(spec, "b2", {}, where),
            activation=_str_field(spec, "activation", "gelu", where),
        )


def _cmd_stage_run(args) -> int:
    spec = _load_object(args.inputs)
    initial = _dense_arg(spec, "initial", {}, "stage-run")
    cfg_spec = _object_field(spec, "cfg", {}, "stage-run")
    where = "stage-run.cfg"
    cfg = StagedConfig(
        chart=_chart_spec(_object_field(cfg_spec, "chart", {}, where), f"{where}.chart"),
        comp=_comp_spec(_object_field(cfg_spec, "comp", {}, where), f"{where}.comp"),
        zero_update_on_empty=_typed_field(
            cfg_spec, "zero_update_on_empty", False, where, (bool,), "true or false"
        ),
    )
    schedule = []
    raw_steps = spec.get("schedule")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise ConfigInvalid("stage-run.schedule", "expected a nonempty list of steps")
    for i, step in enumerate(raw_steps):
        where = f"stage-run.schedule[{i}]"
        if not isinstance(step, dict):
            raise ConfigInvalid(where, "each step must be an object")
        mask = (
            mask_from_json(step["mask"], f"{where}.mask") if "mask" in step else None
        )
        refine = _refinement_arg(step, "refine", where) if "refine" in step else None
        attn = _object_field(step, "attn", None, where)
        if "mask" in attn:
            raise ConfigInvalid(f"{where}.attn.mask", "a stage's mask is the step's mask")
        ffn = _object_field(step, "ffn", None, where)
        schedule.append(
            ScheduleStep(
                attn=_attention_params(attn, {}, f"{where}.attn"),
                ffn=_ffn_params(ffn, f"{where}.ffn"),
                mask=mask,
                refine=refine,
            )
        )
    trace = run_schedule(
        initial, schedule, cfg, carrier_id=_str_field(spec, "carrier", "base", "stage-run")
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
        seed = _seed_from_env(_int_field(spec, "seed", 0, "ffn-check"), "ffn-check.seed")
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=params.d_model) for _ in range(samples)]
    for x in xs:
        try:
            direct, ga_form = ffn_as_ga(x, params)
        except ShapeMismatch as exc:  # only a given x can have the wrong length
            raise ConfigInvalid("ffn-check.x", str(exc)) from exc
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

    for name, fn, op, blurb in (
        ("attn", _cmd_one_stage, "attention", "one attention call from a JSON input file"),
        ("chart", _cmd_one_stage, "score_normal_form", "low-rank normal form of a score matrix"),
        ("anchor", _cmd_one_stage, None, "anchor a kernel (row, balanced, unbalanced)"),
        ("stage-run", _cmd_stage_run, None, "run a staged schedule and dump the trace"),
        ("ffn-check", _cmd_ffn_check, None, "verify the feedforward kernel form"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("inputs", help="path to the input JSON")
        p.set_defaults(fn=fn, op=op)
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
