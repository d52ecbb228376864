"""Command line front end: pipeline runner and invariant-check harness.

Everything on stdout is canonical JSON (sorted keys, fixed layout) so a
fixed config and seed produce byte-identical output; progress lines and
wall times go to stderr. Exit codes: 0 success, 2 configuration error,
3 numeric or convergence failure, 4 invariant failure.

Every JSON object a command reads is described by one _Row: the kind of
each field and whether it is required. One reader walks a row, rejects a
bad value or a field the row does not list with ConfigInvalid on
`<where>.<field>`, and passes the fields that are present to the row's
build; an absent optional field takes the default of the library call.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .anchor import (
    ConditionalFamily,
    Marginals,
    TransportPlan,
    row_anchor,
    sinkhorn_balanced,
    sinkhorn_unbalanced,
)
from .carrier import RefinementMap, pushforward_kernel
from .errors import (
    ConfigInvalid,
    EmptyCol,
    EmptyRow,
    Infeasible,
    InvalidBudget,
    NoConvergence,
    NonFinite,
)
from .gauge import CenteredDecomposition, center_scores, scale_kernel
from .lowrank import LowRankChart, score_normal_form
from .matio import (
    dump_canonical,
    load_json,
    mask_from_json,
    matrix_from_json,
    matrix_to_json,
    refuse_unknown_keys,
    shown,
    vector_from_json,
    vector_to_json,
)
from .operator import (
    AttentionParams,
    FfnParams,
    attention,
    ffn_as_ga,
    update,
)
from .score import (
    BaselinePrior,
    EvidenceKernel,
    Frozen,
    MaskedMatrix,
    MaskedScore,
    assemble_kernel,
)
from .staged import ChartSpec, ScheduleStep, predecessor_sets, run_schedule

_NUMERIC_ERRORS = (NoConvergence, Infeasible, EmptyRow, EmptyCol, NonFinite)


def _seed(seed: int, where: str) -> int:
    """seed, read from where, if it is nonnegative."""
    if seed < 0:
        raise ConfigInvalid(where, f"must be nonnegative, got {seed}")
    return seed


def _resolve_input(spec, base_dir: Path, where: str):
    """One named input: an inline matrix or vector, or a reference to a
    file that holds one (and not another reference)."""
    if isinstance(spec, dict) and isinstance(spec.get("file"), str):
        refuse_unknown_keys(spec, "a file reference", ("file",), where)
        target = base_dir / spec["file"]
        if not target.exists():
            raise ConfigInvalid(where, f"referenced file {str(target)!r} does not exist")
        spec = load_json(target)
        if isinstance(spec, dict) and "file" in spec:
            raise ConfigInvalid(where, f"{str(target)!r} holds another file reference")
    if isinstance(spec, dict) and "rows" in spec:
        return matrix_from_json(spec, where)
    if isinstance(spec, list):
        if spec and isinstance(spec[0], list):
            return matrix_from_json(spec, where)
        return vector_from_json(spec, where)
    if isinstance(spec, dict) and "values" in spec:
        return vector_from_json(spec, where)
    raise ConfigInvalid(where, "expected a matrix, a vector, or a file reference")


@contextmanager
def _config_errors(where: str):
    """A ValueError that a constructor or an operation raises on the
    values it was given is a config error on where, or on where.<field>
    for an InvalidBudget, which names its field (where.tol, where.mu_in,
    where.a). Config and numeric errors pass through; NonFinite is a
    ValueError but exits 3."""
    try:
        yield
    except _NUMERIC_ERRORS:
        raise
    except InvalidBudget as exc:
        raise ConfigInvalid(f"{where}.{exc.field}", str(exc)) from exc
    except ValueError as exc:
        raise ConfigInvalid(where, str(exc)) from exc


def _suites(names, where: str):
    """run_checks of the named suites of the check harness, every suite
    when names is None. The harness is imported here, so only the
    commands that run suites load it."""
    from .checks import SUITES, run_checks

    if names is None:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            known = ", ".join(sorted(SUITES))
            raise ConfigInvalid(where, f"unknown suite {shown(name)}; known: {known}")
    return lambda **kw: run_checks(names, **kw)


# The JSON types: a field value of any other type was bound by name.
_JSON = (list, dict, int, float, type(None))


def _matrix(value, where: str):
    """(values, mask) of a nonempty inline matrix or bound matrix-shaped value."""
    if isinstance(value, _JSON):
        value = matrix_from_json(value, where)
    elif isinstance(value, MaskedMatrix):
        value = value.values, value.mask
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        value = value, np.ones(value.shape, dtype=bool)
    elif not isinstance(value, tuple):  # a tuple is an input, as matrix_from_json parsed it
        raise ConfigInvalid(where, "value is not matrix-shaped")
    if not value[0].size:
        raise ConfigInvalid(where, f"expected a nonempty matrix, got shape {list(value[0].shape)}")
    return value


def _finite(value, where: str) -> np.ndarray:
    values, mask = _matrix(value, where)
    if not mask.all():
        raise ConfigInvalid(where, "expected a fully finite matrix, without '-inf'")
    return values


def _kernel(value, where: str) -> EvidenceKernel:
    if isinstance(value, EvidenceKernel):
        return value
    with _config_errors(where):
        return EvidenceKernel(*_matrix(value, where))


def _prior(value, where: str) -> BaselinePrior:
    with _config_errors(where):
        return BaselinePrior(_finite(value, where))


def _mask(value, where: str) -> np.ndarray:
    if isinstance(value, _JSON):
        return _matrix(mask_from_json(value, where), where)[0]
    return _matrix(value, where)[1]


def _vector(value, where: str) -> np.ndarray:
    if isinstance(value, _JSON):
        return vector_from_json(value, where)
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    raise ConfigInvalid(where, "value is not a vector")


def _plan(value, where: str) -> TransportPlan:
    if isinstance(value, TransportPlan):
        return value
    raise ConfigInvalid(where, "expected the name of a plan")


def _family(value, where: str) -> ConditionalFamily:
    if isinstance(value, TransportPlan):
        return row_anchor(value)
    if isinstance(value, ConditionalFamily):
        return value
    raise ConfigInvalid(where, "expected the name of a conditional family or a plan")


def _number(value, where: str) -> float:
    if type(value) not in (int, float):
        raise ConfigInvalid(where, f"expected a number, got {shown(value)}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigInvalid(where, f"expected a finite number, got {value!r}")
    return float(value)


def _tolerance(tol: float, where: str) -> float:
    """tol if it is finite and >= 0: below 0 nothing passes, at inf nothing fails."""
    if not 0 <= tol <= sys.float_info.max:
        raise ConfigInvalid(where, f"must be a finite number >= 0, got {tol!r}")
    return tol


def _typed(noun: str, kind: type, item: type | None = None):
    """A reader of a JSON value of exactly type kind, so that true is not
    the integer 1 and 2.7 is not 2; with item, a list of such values."""

    def read(value, where: str):
        if type(value) is not kind or (
            item is not None and any(type(v) is not item for v in value)
        ):
            raise ConfigInvalid(where, f"expected {noun}, got {shown(value)}")
        return value

    return read


# Kind name: (reader, whether a string value names an input or an
# earlier stage's output).
_KINDS = {
    "matrix": (_matrix, True),
    "finite matrix": (_finite, True),
    "kernel": (_kernel, True),
    "prior": (_prior, True),
    "mask": (_mask, True),
    "vector": (_vector, True),
    "plan": (_plan, True),
    "family": (_family, True),
    "number": (_number, False),
    "integer": (_typed("an integer", int), False),
    "integers": (_typed("a list of integers", list, int), False),
    "string": (_typed("a string", str), False),
    "strings": (_typed("a list of strings", list, str), False),
    "object": (_typed("a JSON object", dict), False),
    "list": (_typed("a list", list), False),
}


class _Row(Frozen):
    """The fields of one JSON object: each one's kind (a name in _KINDS,
    a nested _Row for an object, or [row] for a nonempty list of such
    objects) and whether it is required. build gets the fields present,
    by name; what it raises is a config error on `<where>.<at>`."""

    def __init__(self, name: str, build: Callable, required: dict,
                 optional: dict | None = None, at: str = ""):
        self.__dict__.update(name=name, build=build, required=required,
                             optional=optional or {}, at=at)


def _field(where: str, key: str) -> str:
    """where.key, or the one of them that is not empty; a long key as shown(key)."""
    key = min(key, shown(key), key=len)
    return f"{where}.{key}" if where and key else where or key


def _read(row: _Row, spec, ctx: dict, where: str, skip=()):
    """row.build of the fields of the object spec, read by row; the keys
    in skip belong to the caller."""
    _value("object", spec, ctx, where)
    kinds = {**row.required, **row.optional}
    for key in spec:
        if key not in kinds and key not in skip:
            raise ConfigInvalid(
                _field(where, key), f"unknown field; {row.name} takes {', '.join(kinds)}"
            )
    args = {}
    for key, kind in kinds.items():
        if key in spec:
            args[key] = _value(kind, spec[key], ctx, _field(where, key))
        elif key in row.required:
            raise ConfigInvalid(_field(where, key), "missing required field")
    with _config_errors(_field(where, row.at)):
        return row.build(**args)


def _value(kind, value, ctx: dict, where: str):
    """One field's value, read as kind; ctx holds the bound names."""
    if isinstance(kind, _Row):
        return _read(kind, value, ctx, where)
    if isinstance(kind, list):
        if type(value) is not list or not value:
            raise ConfigInvalid(where, f"expected a nonempty list of {kind[0].name} objects")
        return [_read(kind[0], item, ctx, f"{where}[{i}]") for i, item in enumerate(value)]
    read, bindable = _KINDS[kind]
    if bindable and isinstance(value, str):
        if value not in ctx:
            raise ConfigInvalid(where, f"unknown input {shown(value)}")
        value = ctx[value]
    return read(value, where)


# perfbench/spans.py wraps some library functions by name on this
# module, so the builds look them up when they run, not when the table
# is made.


def _attention(embeddings, mask=None, **params):
    weights, out = attention(embeddings, AttentionParams(**params), mask)
    if mask is None:
        mask = np.ones(weights.shape, dtype=bool)
    return {"weights": ConditionalFamily(weights, mask), "output": out}


_REFINEMENT = _Row("refinement", RefinementMap, {"map": "integers", "n_coarse": "integer"},
                   {"coarse": "string"})
_ATTN = _Row("attn", AttentionParams,
             {"w_q": "finite matrix", "w_k": "finite matrix", "w_v": "finite matrix"},
             {"tau": "number", "key_bias": "vector", "prior": "prior"})
_FFN = _Row("ffn", FfnParams,
            {"w1": "finite matrix", "b1": "vector", "w2": "finite matrix", "b2": "vector"},
            {"activation": "string"})
_TRANSPORT = {"kernel": "kernel", "mu_out": "vector", "mu_in": "vector"}
_BUDGET = {"tol": "number", "max_iter": "integer"}

_OPS = {row.name: row for row in (
    _Row("assemble_kernel", lambda scores, **kw: assemble_kernel(MaskedScore(*scores), **kw),
         {"scores": "matrix"}, {"prior": "prior", "tau": "number"}),
    _Row("row_anchor", lambda kernel: row_anchor(kernel), {"kernel": "kernel"}),
    _Row("sinkhorn_balanced", lambda kernel, mu_out, mu_in, **kw: sinkhorn_balanced(
        kernel, Marginals(mu_out, mu_in), **kw), _TRANSPORT, _BUDGET),
    _Row("sinkhorn_unbalanced", lambda kernel, mu_out, mu_in, **kw: sinkhorn_unbalanced(
        kernel, Marginals(mu_out, mu_in), **kw), _TRANSPORT,
         {"lam_out": "number", "lam_in": "number", **_BUDGET}),
    _Row("plan_update", lambda plan, values: update(plan, values),
         {"plan": "plan", "values": "finite matrix"}, at="values"),
    _Row("conditional_update", lambda family, values: update(family, values),
         {"family": "family", "values": "finite matrix"}, at="values"),
    _Row("center_scores", center_scores, {"scores": "finite matrix"}),
    _Row("score_normal_form", score_normal_form, {"scores": "finite matrix", "rank": "integer"},
         at="rank"),
    _Row("pushforward_kernel", lambda kernel, map_x, map_y=None: pushforward_kernel(
        kernel, map_x, map_x if map_y is None else map_y),
         {"kernel": "kernel", "map_x": _REFINEMENT}, {"map_y": _REFINEMENT}),
    _Row("scale_kernel", scale_kernel, {"kernel": "kernel", "a": "vector", "b": "vector"}),
    _Row("attention", _attention, {"embeddings": "finite matrix", **_ATTN.required},
         {"mask": "mask", **_ATTN.optional}),
)}


def _stage_run(initial, schedule, cfg=None) -> dict:
    trace = run_schedule(initial, schedule, **(cfg or {}))
    # A carried mask is one array object over several stages: one payload
    # for it, which dump_canonical then formats once.
    distinct = {id(m): m for m in trace.masks}
    masks = {key: matrix_to_json(m.astype(np.float64)) for key, m in distinct.items()}
    payload = {
        "records": [matrix_to_json(r) for r in trace.records],
        "updates": [matrix_to_json(u) for u in trace.updates],
        "masks": [masks[id(m)] for m in trace.masks],
        "carrier_ids": list(trace.carrier_ids),
    }
    # predecessor_sets composes square relations on one carrier: a
    # refining step pools rows, which no mask of the trace records.
    if all(step.refine is None for step in schedule):
        depth = len(trace.masks)
        payload["influence"] = {
            "mode": "markov",
            "depth": depth,
            "predecessors": [sorted(pre) for pre in predecessor_sets(trace.masks, depth)],
        }
    return payload


_STEP = _Row("step", ScheduleStep, {"attn": _ATTN, "ffn": _FFN},
             {"mask": "mask", "refine": _REFINEMENT})
_CFG = _Row("cfg", dict, {}, {
    "chart": _Row("cfg.chart", ChartSpec, {}, {"kind": "string", "eps": "number"}),
})
_STAGE_RUN = _Row("stage-run", _stage_run, {"initial": "finite matrix", "schedule": [_STEP]},
                  {"cfg": _CFG})


def _ffn_check(x=None, samples=None, seed=None, tolerance=1e-10, **ffn) -> dict:
    """The feedforward block against its kernel form, on x or on samples
    random inputs drawn from seed (20 from seed 0 by default); with x,
    samples and seed would not be read, so neither may be given."""
    _tolerance(tolerance, "ffn-check.tolerance")
    params = FfnParams(**ffn)
    if x is None:
        samples = 20 if samples is None else samples
        if samples < 1:
            raise ConfigInvalid("ffn-check.samples", f"must be at least 1, got {samples}")
        rng = np.random.default_rng(_seed(seed or 0, "ffn-check.seed"))
        xs = rng.normal(size=(samples, params.d_model))
    else:
        for key, value in (("samples", samples), ("seed", seed)):
            if value is not None:
                raise ConfigInvalid(f"ffn-check.{key}", "not read when x is given")
        xs = x[None, :]
    with _config_errors("ffn-check.x"):  # only a given x can have the wrong length
        direct, ga_form = ffn_as_ga(xs, params)
    worst = float(np.abs(direct - ga_form).max())
    return {"samples": len(xs), "max_deviation": worst, "tolerance": tolerance,
            "passed": worst <= tolerance}


_FFN_CHECK = _Row("ffn-check", _ffn_check, _FFN.required, {
    **_FFN.optional, "x": "vector", "samples": "integer", "seed": "integer",
    "tolerance": "number"})
_RUN = _Row("run", dict, {"stages": "list"},
            {"version": "string", "seed": "integer", "inputs": "object", "checks": "strings"})


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
            "key_bias": vector_to_json(obj.key_bias),
            "degenerate": obj.degenerate,
        }
    if isinstance(obj, dict):
        return {k: _serialize(v) for k, v in obj.items()}
    if isinstance(obj, (list, str, int, float)):  # already JSON
        return obj
    arr = np.asarray(obj)
    if arr.ndim == 2:
        return {"kind": "matrix", "matrix": matrix_to_json(arr)}
    raise ConfigInvalid("output", f"cannot serialize object of type {type(obj).__name__}")


def _load_object(path: str) -> dict:
    root = load_json(path)
    if not isinstance(root, dict):
        raise ConfigInvalid(path, "input root must be an object")
    return root


def _run_pipeline(config_path: str, out_dir: str | None) -> tuple[str, int]:
    """Run a pipeline config; return the canonical report text and the
    exit code. With out_dir, the same text goes to report.json."""
    config = _read(_RUN, _load_object(config_path), {}, "")
    base_dir = Path(config_path).parent
    seed = _seed(config.get("seed", 0), "seed")
    checks = config.get("checks")
    run_suites = _suites(checks, "checks") if checks else None

    ctx: dict = {}
    for name, spec in config.get("inputs", {}).items():
        ctx[name] = _resolve_input(spec, base_dir, f"inputs.{name}")

    stage_reports = []
    for i, stage in enumerate(config["stages"]):
        where = f"stages[{i}]"
        _value("object", stage, ctx, where)
        op = _value("string", stage.get("op"), ctx, f"{where}.op")
        if op not in _OPS:
            known = ", ".join(sorted(_OPS))
            raise ConfigInvalid(f"{where}.op", f"unknown operation {shown(op)}; known: {known}")
        out_name = stage.get("out")
        if not isinstance(out_name, str) or not out_name:
            raise ConfigInvalid(f"{where}.out", "stage needs an output name")
        if out_name in ctx:
            raise ConfigInvalid(f"{where}.out", f"name {shown(out_name)} already bound")
        # With --out, <out>.json goes next to report.json, inside DIR.
        if out_dir is not None and (out_name in ("report", ".", "..")
                                    or set(out_name) & {"/", "\\", "\0"}):
            raise ConfigInvalid(f"{where}.out",
                                f"{shown(out_name)} cannot name a stage file in --out")
        result = _read(_OPS[op], stage, ctx, where, skip=("op", "out"))
        bound = {out_name: result}
        if isinstance(result, dict):  # the output, and <out>_<key> for each other part
            bound = {out_name if key == "output" else f"{out_name}_{key}": value
                     for key, value in result.items()}
        for name in bound:
            if name in ctx:
                raise ConfigInvalid(f"{where}.out", f"name {shown(name)} already bound")
        ctx.update(bound)
        stage_reports.append({"op": op, "out": out_name, "result": _serialize(result)})

    report = {
        "version": config.get("version", "1"),
        "tool_version": __version__,
        "seed": seed,
        "stages": stage_reports,
    }

    exit_code = 0
    if run_suites is not None:
        check_reports = run_suites(seed=seed)
        report["checks"] = [r.as_json() for r in check_reports]
        if not all(r.passed for r in check_reports):
            exit_code = 4

    text = dump_canonical(report)
    if out_dir is not None:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid("--out", f"cannot make {shown(out_dir)}: {exc.strerror}") from exc
        # report.json last, so that a refused stage file leaves no report.
        files = [(f"stages[{i}].out", f"{entry['out']}.json", entry["result"])
                 for i, entry in enumerate(stage_reports)] + [("--out", "report.json", None)]
        for where, name, result in files:
            try:
                Path(out_dir, name).write_text(text if result is None else dump_canonical(result))
            except OSError as exc:
                raise ConfigInvalid(where, f"cannot write {shown(name)} in {shown(out_dir)}: "
                                           f"{exc.strerror}") from exc
    return text, exit_code


def _cmd_run(args) -> int:
    started = time.perf_counter()
    text, exit_code = _run_pipeline(args.config, args.out)
    sys.stdout.write(text)
    sys.stderr.write(f"pipeline wall time: {time.perf_counter() - started:.3f}s\n")
    return exit_code


def _cmd_check(args) -> int:
    seed = _seed(args.seed, "--seed")
    run_suites = _suites(args.suite, "--suite")
    tol = None if args.tol is None else _tolerance(args.tol, "--tol")
    started = time.perf_counter()
    reports = run_suites(seed=seed, tol=tol)
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


def _cmd_input(args) -> int:
    """A command that reads one JSON object by its row: `ga attn` and
    `ga chart` run one `ga run` stage of their op, and `ga anchor` the op
    its mode picks. Exit 4 when the result did not pass."""
    spec = _load_object(args.inputs)
    row, skip = args.row, ()
    if row is None:
        mode = _value("string", spec.get("mode", "row"), {}, "anchor.mode")
        if mode not in _ANCHOR_OPS:
            raise ConfigInvalid("anchor.mode", f"unknown mode {shown(mode)}")
        row, skip = _OPS[_ANCHOR_OPS[mode]], ("mode",)
    result = _serialize(_read(row, spec, {}, args.command, skip))
    sys.stdout.write(dump_canonical(result))
    return 4 if result.get("passed") is False else 0


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

    for name, row, blurb in (
        ("attn", _OPS["attention"], "one attention call from a JSON input file"),
        ("chart", _OPS["score_normal_form"], "low-rank normal form of a score matrix"),
        ("anchor", None, "anchor a kernel (row, balanced, unbalanced)"),
        ("stage-run", _STAGE_RUN, "run a staged schedule and dump the trace"),
        ("ffn-check", _FFN_CHECK, "verify the feedforward kernel form"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("inputs", help="path to the input JSON")
        p.set_defaults(fn=_cmd_input, row=row)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
