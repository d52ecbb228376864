"""Exit-code contract, report determinism, and subcommand behavior."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attnkit import checks, cli
from attnkit.cli import main
from attnkit.errors import NonFinite


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_config(tmp_path):
    return write_config(
        tmp_path,
        "minimal.json",
        {
            "version": "1",
            "seed": 0,
            "inputs": {
                "scores": [[0.0, 0.0], [0.0, 0.0]],
                "values": [[1.0, 0.0], [0.0, 1.0]],
            },
            "stages": [
                {"op": "assemble_kernel", "scores": "scores", "out": "kernel"},
                {"op": "row_anchor", "kernel": "kernel", "out": "weights"},
                {
                    "op": "conditional_update",
                    "family": "weights",
                    "values": "values",
                    "out": "update",
                },
            ],
        },
    )


def finite_leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from finite_leaves(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from finite_leaves(value)
    elif isinstance(obj, float):
        yield obj


def test_minimal_pipeline_reports_uniform_weights(tmp_path, capsys):
    code = main(["run", minimal_config(tmp_path)])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)
    weights = [s for s in report["stages"] if s["out"] == "weights"][0]
    assert weights["result"]["matrix"]["rows"] == [[0.5, 0.5], [0.5, 0.5]]


def test_run_reports_the_config_version(tmp_path, capsys):
    config = write_config(tmp_path, "v.json", {"version": "2", "stages": []})
    assert main(["run", config]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == "2"


def test_missing_input_file_exits_2_and_names_the_input(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "broken.json",
        {"version": "1", "inputs": {"scores": {"file": "gone.json"}}, "stages": []},
    )
    code = main(["run", config])
    err = capsys.readouterr().err
    assert code == 2
    assert "inputs.scores" in err
    assert "gone.json" in err


def test_a_file_that_references_a_file_exits_2_and_names_the_input(tmp_path, capsys):
    (tmp_path / "self.json").write_text(json.dumps({"file": "self.json"}))
    config = write_config(
        tmp_path,
        "loop.json",
        {"version": "1", "inputs": {"scores": {"file": "self.json"}}, "stages": []},
    )
    assert main(["run", config]) == 2
    assert capsys.readouterr().err.startswith("error: inputs.scores:")


def test_unparseable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"inputs": {"x": ' + "[" * 2000 + "]" * 2000 + '}, "stages": []}',
    '{"inputs": {"x": {"file": "deep.json"}}, "stages": []}',
])
def test_a_config_nested_past_the_recursion_limit_exits_2_and_names_the_file(
        tmp_path, capsys, text):
    (tmp_path / "deep.json").write_text("[" * 5000 + "]" * 5000)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    named = tmp_path / "deep.json" if "file" in text else path
    assert out.err.startswith(f"error: {named}: invalid JSON: maximum recursion depth exceeded")


def test_out_on_a_file_exits_2_and_names_out(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert main(["run", minimal_config(tmp_path), "--out", str(taken)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: --out:")
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("name", ["report", ".", "..", "../escaped", "sub/k", "a\\b", "a\0b"])
def test_run_out_refuses_a_stage_name_that_is_no_file_in_dir(tmp_path, capsys, name):
    config = write_config(tmp_path, "config.json",
                          run_stage({"op": "center_scores", "scores": EYE, "out": name}))
    assert main(["run", config, "--out", str(tmp_path / "dir")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: stages[0].out: {name!r} cannot name a stage file in --out\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    # Without --out the name only binds the stage's result.
    assert main(["run", config]) == 0


def test_unknown_operation_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "unknown_op.json",
        {"version": "1", "inputs": {}, "stages": [{"op": "frobnicate", "out": "x"}]},
    )
    assert main(["run", config]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_infeasible_transport_exits_3(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "infeasible.json",
        {
            "version": "1",
            "inputs": {
                "kernel": [[1.0, "-inf"], [1.0, 1.0]],
                "mu_out": [2.0, 1.0],
                "mu_in": [1.0, 2.0],
            },
            "stages": [
                {
                    "op": "sinkhorn_balanced",
                    "kernel": "kernel",
                    "mu_out": "mu_out",
                    "mu_in": "mu_in",
                    "out": "plan",
                }
            ],
        },
    )
    code = main(["run", config])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_a_masked_out_column_with_mass_exits_3(tmp_path, capsys):
    spec = {"mode": "balanced", "kernel": [[1, "-inf"], [1, "-inf"]],
            "mu_out": [1, 1], "mu_in": [1, 1]}
    assert main(["anchor", write_config(tmp_path, "anchor.json", spec)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "numeric failure: masked-out column cannot carry positive marginal\n"


def test_balanced_masses_past_the_largest_double_are_compared_without_overflow(
    tmp_path, capsys
):
    # Each total is 2e308; the masses match and the plan is 5e307 everywhere.
    spec = {"mode": "balanced", "kernel": [[1, 1], [1, 1]],
            "mu_out": [1e308, 1e308], "mu_in": [1e308, 1e308]}
    assert main(["anchor", write_config(tmp_path, "anchor.json", spec)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    report = json.loads(out.out)
    assert report["converged"] and report["iterations"] == 2
    assert report["marginal_error"] == 0.0
    assert report["matrix"]["rows"] == [[5e307, 5e307], [5e307, 5e307]]


def test_balanced_masses_that_differ_past_the_largest_double_exit_3(tmp_path, capsys):
    spec = {"mode": "balanced", "kernel": [[1, 1], [1, 1]],
            "mu_out": [1e308, 1e308], "mu_in": [1e308, 5e307]}
    assert main(["anchor", write_config(tmp_path, "anchor.json", spec)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "numeric failure: total masses differ: 2 vs 1.5 in units of 1e+308\n"


def test_an_infinite_report_number_exits_3_with_nothing_on_stdout(tmp_path, capsys):
    # The unbalanced plan's marginals miss the 1e308 masses by more than
    # the largest double in total: its marginal error is inf, and JSON
    # has no number for it.
    spec = {"mode": "unbalanced", "kernel": [[1, 1], [1, 1]],
            "mu_out": [1e308, 1e308], "mu_in": [1e308, 1e308]}
    assert main(["anchor", write_config(tmp_path, "anchor.json", spec)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numeric failure: ") and out.err.count("\n") == 1


def test_full_demo_pipeline_outputs_are_finite(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "demo.json",
        {
            "version": "1",
            "seed": 7,
            "inputs": {
                "scores": [[0.4, -0.3, 0.1], [0.0, 0.8, "-inf"], [-0.2, 0.5, 0.9]],
                "values": [[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]],
                "mu_out": [1.0, 1.0, 1.0],
                "mu_in": [0.8, 1.2, 1.0],
            },
            "stages": [
                {
                    "op": "assemble_kernel",
                    "scores": "scores",
                    "tau": 0.7,
                    "out": "kernel",
                },
                {
                    "op": "sinkhorn_balanced",
                    "kernel": "kernel",
                    "mu_out": "mu_out",
                    "mu_in": "mu_in",
                    "out": "plan",
                },
                {"op": "plan_update", "plan": "plan", "values": "values", "out": "update"},
                {"op": "center_scores", "scores": "update", "out": "centered"},
                {"op": "score_normal_form", "scores": "update", "rank": 1, "out": "chart"},
            ],
        },
    )
    code = main(["run", config, "--out", str(tmp_path / "artifacts")])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert [s["op"] for s in report["stages"]] == [
        "assemble_kernel",
        "sinkhorn_balanced",
        "plan_update",
        "center_scores",
        "score_normal_form",
    ]
    values = list(finite_leaves(report))
    assert values and all(math.isfinite(v) for v in values)
    written = {p.name for p in (tmp_path / "artifacts").iterdir()}
    assert "report.json" in written
    assert {"kernel.json", "plan.json", "chart.json"} <= written


def test_run_can_append_check_suites(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "with_checks.json",
        {
            "version": "1",
            "seed": 0,
            "inputs": {"scores": [[0.0, 0.0], [0.0, 0.0]]},
            "stages": [
                {"op": "assemble_kernel", "scores": "scores", "out": "kernel"}
            ],
            "checks": ["gauge"],
        },
    )
    code = main(["run", config])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"][0]["suite"] == "gauge"
    assert report["checks"][0]["passed"] is True


def test_run_with_a_failing_suite_exits_4_and_reports_it(tmp_path, capsys, monkeypatch):
    # The forked workers inherit the patched criterion.
    def failing(rng, tol=None):
        return [checks.PropertyResult("ffn_equivalence", 1, 1.0, 0.0, False)]

    monkeypatch.setitem(checks.CRITERIA, "ffn_equivalence", failing)
    config = write_config(tmp_path, "failing_checks.json", {
        "stages": [{"op": "row_anchor", "kernel": [[1.0, 2.0], [3.0, 4.0]], "out": "w"}],
        "checks": ["gauge", "ffn"],
    })
    assert main(["run", config]) == 4
    report = json.loads(capsys.readouterr().out)
    assert [(r["suite"], r["passed"]) for r in report["checks"]] == [
        ("gauge", True), ("ffn", False)]
    assert report["stages"][0]["out"] == "w"


def test_run_rejects_an_unknown_suite_before_any_stage_runs(tmp_path, capsys):
    # The stage would exit 3 on its empty row: the config error comes first.
    config = write_config(tmp_path, "bad_checks.json", {
        "stages": [{"op": "row_anchor", "kernel": [["-inf", "-inf"], [1, 1]], "out": "k"}],
        "checks": ["nope"],
    })
    assert main(["run", config]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: checks: unknown suite 'nope'; known: barrier, composition, cycle-sum, "
        "eckart-young, ffn, gauge, mixture, sinkhorn\n"
    )


def test_check_reports_are_byte_identical_for_fixed_seed(capsys):
    assert main(["check", "--suite", "gauge", "--seed", "11"]) == 0
    first = capsys.readouterr()
    assert main(["check", "--suite", "gauge", "--seed", "11"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "wall time" in first.err
    assert "wall time" not in first.out


def test_check_unknown_suite_exits_2(capsys):
    assert main(["check", "--suite", "nope"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: --suite: unknown suite 'nope'; known: barrier, composition, cycle-sum, "
        "eckart-young, ffn, gauge, mixture, sinkhorn\n"
    )


def test_check_rejects_an_unknown_suite_before_any_suite_runs(monkeypatch, capsys):
    def run_criterion(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(checks, "run_criterion", run_criterion)
    assert main(["check", "--suite", "gauge", "--suite", "nope"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: --suite: unknown suite 'nope'")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_check_refuses_a_tolerance_that_cannot_decide_before_any_suite_runs(
    monkeypatch, capsys, tol
):
    # Below 0 or NaN no property can pass; at inf none can fail.
    def run_criterion(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(checks, "run_criterion", run_criterion)
    assert main(["check", "--suite", "gauge", f"--tol={tol}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --tol: must be a finite number >= 0, got {float(tol)!r}\n"


@pytest.mark.parametrize("error, code", [(ValueError("refused"), 4), (NonFinite("overflow"), 3)])
def test_check_reports_a_refusing_criterion_and_exits_3_on_a_numeric_one(
    monkeypatch, capsys, error, code
):
    # The forked workers inherit the patched criterion.
    def raising(rng, tol=None):
        raise error

    monkeypatch.setitem(checks.CRITERIA, "mixture_flattening", raising)
    assert main(["check", "--suite", "mixture", "--suite", "cycle-sum"]) == code
    out = capsys.readouterr()
    if code == 3:
        assert out.out == "" and out.err == "numeric failure: overflow\n"
    else:
        (line,) = json.loads(out.out)["suites"][0]["properties"]
        assert line["name"] == "mixture_flattening" and not line["passed"]
        assert line["witness"] == {"error": "refused"}


def test_check_zero_tolerance_exits_4_with_witnesses(capsys):
    code = main(["check", "--suite", "gauge", "--tol", "0"])
    out = capsys.readouterr().out
    assert code == 4
    report = json.loads(out)
    assert report["passed"] is False
    failed = [
        p
        for suite in report["suites"]
        for p in suite["properties"]
        if not p["passed"]
    ]
    assert failed and all("witness" in p for p in failed)


def test_attn_subcommand(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "attn.json",
        {
            "embeddings": [[1.0, 0.0], [0.0, 1.0]],
            "w_q": [[0.3, 0.1], [0.0, 0.2]],
            "w_k": [[0.2, 0.0], [0.1, 0.4]],
            "w_v": [[1.0, 0.0], [0.0, 1.0]],
            "tau": 0.5,
        },
    )
    assert main(["attn", path]) == 0
    result = json.loads(capsys.readouterr().out)
    rows = np.array(result["weights"]["matrix"]["rows"])
    assert np.allclose(rows.sum(axis=1), 1.0)
    assert result["output"]["kind"] == "matrix"


def test_attn_without_a_mask_admits_every_pair(tmp_path, capsys):
    # Row 0's score on key 1 is about -1131 below its peak, so its weight
    # underflows to 0; the pair stays admissible, not a hole.
    spec = {"embeddings": [[40.0, 0.0], [0.0, 0.0]], "w_q": [[1.0, 0.0], [0.0, 1.0]],
            "w_k": [[1.0, 0.0], [0.0, 1.0]], "w_v": [[1.0, 0.0], [0.0, 1.0]]}
    assert main(["attn", write_config(tmp_path, "attn.json", spec)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["weights"]["matrix"]["rows"] == [[1.0, 0.0], [0.5, 0.5]]


def test_anchor_subcommand_row_mode(tmp_path, capsys):
    path = write_config(
        tmp_path, "anchor.json", {"kernel": [[1.0, 3.0], ["-inf", 2.0]]}
    )
    assert main(["anchor", path]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["kind"] == "conditional"
    assert result["matrix"]["rows"][0] == [0.25, 0.75]
    assert result["matrix"]["rows"][1] == ["-inf", 1.0]


@pytest.mark.parametrize("mode", ["balanced", "unbalanced"])
@pytest.mark.parametrize(
    "budget, field",
    [
        ({"max_iter": 0}, "anchor.max_iter"),
        ({"max_iter": -3}, "anchor.max_iter"),
        ({"tol": -1e-9}, "anchor.tol"),
        ({"tol": math.nan}, "anchor.tol"),
    ],
)
def test_anchor_rejects_a_solver_budget_that_cannot_run(
    tmp_path, capsys, mode, budget, field
):
    spec = {
        "mode": mode,
        "kernel": [[1.0, 3.0], ["-inf", 2.0]],
        "mu_out": [1.0, 1.0],
        "mu_in": [0.5, 1.5],
        **budget,
    }
    path = write_config(tmp_path, "anchor.json", spec)
    assert main(["anchor", path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {field}:" in out.err


@pytest.mark.parametrize(
    "mode, bad, field",
    [
        ("balanced", {"max_iter": "ten"}, "anchor.max_iter"),
        ("unbalanced", {"max_iter": "ten"}, "anchor.max_iter"),
        ("balanced", {"max_iter": 2.7}, "anchor.max_iter"),
        ("unbalanced", {"max_iter": 2.7}, "anchor.max_iter"),
        ("balanced", {"max_iter": True}, "anchor.max_iter"),
        ("balanced", {"tol": "tiny"}, "anchor.tol"),
        ("unbalanced", {"lam_out": 0}, "anchor.lam_out"),
        ("unbalanced", {"lam_in": -1.0}, "anchor.lam_in"),
        ("balanced", {"mu_out": [1.0, 0.0]}, "anchor.mu_out"),
        ("unbalanced", {"mu_in": [0.0, 2.0]}, "anchor.mu_in"),
        ("balanced", {"mu_in": []}, "anchor.mu_in"),
    ],
)
def test_anchor_rejects_bad_sinkhorn_fields_with_exit_2(tmp_path, capsys, mode, bad, field):
    spec = {
        "mode": mode,
        "kernel": [[1.0, 3.0], ["-inf", 2.0]],
        "mu_out": [1.0, 1.0],
        "mu_in": [0.5, 1.5],
        **bad,
    }
    path = write_config(tmp_path, "anchor.json", spec)
    assert main(["anchor", path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {field}:" in out.err


@pytest.mark.parametrize("command", ["run", "attn"])
def test_a_json_root_that_is_not_an_object_exits_2(tmp_path, capsys, command):
    path = tmp_path / "root.json"
    path.write_text("[1, 2]")
    assert main([command, str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: input root must be an object\n"


def test_a_stage_output_may_not_rebind_an_input(tmp_path, capsys):
    config = write_config(tmp_path, "rebind.json", {
        "inputs": {"k": [[1.0, 2.0], [3.0, 4.0]]},
        "stages": [{"op": "row_anchor", "kernel": "k", "out": "k"}],
    })
    assert main(["run", config]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: stages[0].out: name 'k' already bound\n"


def test_an_input_vector_object_reads_as_its_values(tmp_path, capsys):
    stage = {"op": "scale_kernel", "kernel": [[1.0, 2.0], [3.0, 4.0]], "a": "a", "b": "b"}
    outputs = []
    for a in ({"values": [2.0, 0.5]}, [2.0, 0.5]):
        config = write_config(tmp_path, "vector.json", run_stage(stage, a=a, b=[1.0, 3.0]))
        assert main(["run", config]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0]["stages"][0]["result"]["matrix"]["rows"] == [[2.0, 12.0], [1.5, 6.0]]


def test_a_bound_family_reads_as_a_matrix(tmp_path, capsys):
    # A matrix-shaped field takes a bound conditional family's values and
    # mask, as if they were written inline with "-inf" at its holes.
    kernel = [[1.0, 3.0], ["-inf", 2.0]]
    config = write_config(tmp_path, "bound.json", {"stages": [
        {"op": "row_anchor", "kernel": kernel, "out": "w"},
        {"op": "assemble_kernel", "scores": "w", "out": "k"},
    ]})
    assert main(["run", config]) == 0
    bound = json.loads(capsys.readouterr().out)["stages"][1]["result"]
    inline = write_config(tmp_path, "inline.json", {"stages": [
        {"op": "assemble_kernel", "scores": [[0.25, 0.75], ["-inf", 1.0]], "out": "k"},
    ]})
    assert main(["run", inline]) == 0
    assert bound == json.loads(capsys.readouterr().out)["stages"][0]["result"]
    assert bound["matrix"]["rows"][1][0] == "-inf"


def test_run_names_the_stage_field_of_a_zero_marginal(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "marginal.json",
        {
            "version": "1",
            "inputs": {
                "kernel": [[1.0, 1.0], [1.0, 1.0]],
                "mu_out": [1.0, 0.0],
                "mu_in": [0.5, 0.5],
            },
            "stages": [
                {
                    "op": "sinkhorn_unbalanced",
                    "kernel": "kernel",
                    "mu_out": "mu_out",
                    "mu_in": "mu_in",
                    "out": "plan",
                }
            ],
        },
    )
    assert main(["run", config]) == 2
    assert "error: stages[0].mu_out:" in capsys.readouterr().err


def test_run_rejects_a_zero_iteration_budget_on_the_stage(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "budget.json",
        {
            "version": "1",
            "inputs": {
                "kernel": [[1.0, 1.0], [1.0, 1.0]],
                "mu_out": [1.0, 1.0],
                "mu_in": [1.0, 1.0],
            },
            "stages": [
                {
                    "op": "sinkhorn_balanced",
                    "kernel": "kernel",
                    "mu_out": "mu_out",
                    "mu_in": "mu_in",
                    "max_iter": 0,
                    "out": "plan",
                }
            ],
        },
    )
    assert main(["run", config]) == 2
    assert "stages[0].max_iter" in capsys.readouterr().err


def test_chart_subcommand_reports_residual(tmp_path, capsys):
    path = write_config(
        tmp_path,
        "chart.json",
        {"scores": [[1.0, 2.0], [3.0, 4.0]], "rank": 1},
    )
    assert main(["chart", path]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["rank"] == 1
    assert result["frobenius_residual"] < 1e-12


def test_stage_run_emits_trace_and_influence(tmp_path, capsys):
    step = {
        "attn": {
            "w_q": [[0.3, 0.0], [0.0, 0.3]],
            "w_k": [[0.3, 0.0], [0.0, 0.3]],
            "w_v": [[0.4, 0.0], [0.0, 0.4]],
        },
        "ffn": {
            "w1": [[0.3, 0.1], [0.0, 0.2]],
            "b1": [0.0, 0.1],
            "w2": [[0.2, 0.0], [0.0, 0.2]],
            "b2": [0.0, 0.0],
            "activation": "relu",
        },
    }
    causal = dict(step)
    causal["mask"] = [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
    path = write_config(
        tmp_path,
        "stage.json",
        {
            "initial": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            "schedule": [causal, step],
        },
    )
    assert main(["stage-run", path]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert len(trace["records"]) == 3
    assert len(trace["updates"]) == 2
    assert trace["carrier_ids"] == ["base", "base", "base"]
    assert trace["influence"]["predecessors"] == [[0], [0, 1], [0, 1, 2]]


def test_stage_run_reports_no_influence_after_a_refinement(tmp_path, capsys):
    # The step pools initial rows {0, 1} into row 0 and {2, 3} into row 1,
    # then attends under the identity mask. Update row 0 reads initial
    # row 1, which no relation on the 2 rows of the mask can say.
    step = {**STEP_2X2, "mask": [[1, 0], [0, 1]], "refine": {"map": [0, 0, 1, 1], "n_coarse": 2}}
    spec = {"initial": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]], "schedule": [step]}
    assert main(["stage-run", write_config(tmp_path, "stage.json", spec)]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert "influence" not in trace
    spec["initial"][1] = [4.0, -3.0]
    assert main(["stage-run", write_config(tmp_path, "perturbed.json", spec)]) == 0
    perturbed = json.loads(capsys.readouterr().out)
    assert perturbed["updates"][0]["rows"][0] != trace["updates"][0]["rows"][0]


def test_stage_run_converts_each_mask_object_once(monkeypatch, capsys):
    # The golden schedule's masks are A, A (carried), pushed A, and a
    # new one: three objects, so three square payloads among the
    # records' and updates' n x 3 ones.
    shapes = []
    convert = cli.matrix_to_json

    def to_json(*args, **kwargs):
        out = convert(*args, **kwargs)
        shapes.append(tuple(out["shape"]))
        return out

    monkeypatch.setattr(cli, "matrix_to_json", to_json)
    path = Path(__file__).parent / "golden" / "stage_run_refine.json"
    assert main(["stage-run", str(path)]) == 0
    masks = json.loads(capsys.readouterr().out)["masks"]
    assert [m["shape"] for m in masks] == [[4, 4], [4, 4], [2, 2], [2, 2]]
    assert [s for s in shapes if s[0] == s[1]] == [(4, 4), (2, 2), (2, 2)]


def test_stage_run_refinement_must_fit_the_current_carrier(tmp_path, capsys):
    # The golden schedule pools 4 records into 2 on step 2; a map of 3
    # entries there fits no carrier the run is on.
    spec = json.loads((Path(__file__).parent / "golden" / "stage_run_refine.json").read_text())
    spec["schedule"][2]["refine"]["map"] = [0, 0, 1]
    assert main(["stage-run", write_config(tmp_path, "stage.json", spec)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: stage-run: records have 4 rows, refinement expects 3\n"


def test_ffn_check_defaults_to_20_samples_from_seed_0(tmp_path, capsys):
    assert main(["ffn-check", write_config(tmp_path, "ffn.json", FFN_2X2)]) == 0
    default = capsys.readouterr().out
    spec = {**FFN_2X2, "samples": 20, "seed": 0}
    assert main(["ffn-check", write_config(tmp_path, "ffn.json", spec)]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["samples"] == 20


def test_ffn_check_passes_then_fails_on_forced_tolerance(tmp_path, capsys):
    # The gelu block of the ffn_check_gelu golden case: six hidden units
    # of both signs, so that the routes' sums meet terms in other orders.
    payload = json.loads((Path(__file__).parent / "golden" / "ffn_check_gelu.json").read_text())
    payload.update(samples=8, seed=0)
    path = write_config(tmp_path, "ffn.json", payload)
    assert main(["ffn-check", path]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["passed"] is True
    assert result["max_deviation"] <= 1e-10

    # The two routes sum in different orders, so a few samples differ
    # in the last bits and a zero tolerance fails.
    payload["tolerance"] = 0.0
    forced = write_config(tmp_path, "ffn_forced.json", payload)
    assert main(["ffn-check", forced]) == 4
    result = json.loads(capsys.readouterr().out)
    assert result["passed"] is False and result["max_deviation"] > 0


def test_stage_run_never_imports_scipy():
    # Importing scipy.special would more than double ga's start-up time;
    # the library computes gelu's erf itself and keeps scipy for tests.
    # The property harness is compiled only by the commands that run it,
    # and so is numpy.random (about 16 ms and 18 modules), which only
    # they and ffn-check draw from. orjson is imported by the first
    # JSON file read, so ga check, which reads none, never loads it.
    root = Path(__file__).resolve().parents[1]
    script = (
        "import contextlib, io, json, sys\n"
        "from attnkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(json.dumps({'code': code, 'scipy': sorted(loaded),\n"
        "                  'harness': 'attnkit.checks' in sys.modules,\n"
        "                  'random': 'numpy.random' in sys.modules,\n"
        "                  'orjson': 'orjson' in sys.modules}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv, harness in (
        (["stage-run", "tests/golden/stage_run_causal.json"], False),
        (["run", "tests/golden/run_pipeline.json"], False),
        (["check", "--suite", "cycle-sum"], True),
    ):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=root,
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert json.loads(done.stdout) == {"code": 0, "scipy": [], "harness": harness,
                                           "random": harness, "orjson": not harness}, argv


def test_importing_the_cli_leaves_the_harness_out():
    root = Path(__file__).resolve().parents[1]
    script = ("import sys, attnkit.cli\n"
              "print('attnkit.checks' in sys.modules, 'orjson' in sys.modules)\n")
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout == "False False\n"


FFN_2X2 = {"w1": [[1.0, 0.0], [0.0, 1.0]], "b1": [0.0, 0.0],
           "w2": [[1.0, 0.0], [0.0, 1.0]], "b2": [0.0, 0.0]}
EYE = [[1.0, 0.0], [0.0, 1.0]]
ATTN_2X2 = {"embeddings": EYE, "w_q": EYE, "w_k": EYE, "w_v": EYE}
STEP_2X2 = {"attn": {"w_q": EYE, "w_k": EYE, "w_v": EYE}, "ffn": FFN_2X2}
STAGE_RUN_2X2 = {"initial": EYE, "schedule": [STEP_2X2]}
PUSHFORWARD = {"op": "pushforward_kernel", "kernel": [[1.0, 2.0], [3.0, 4.0]], "out": "k",
               "map_x": {"map": [0, 0], "n_coarse": 1}}


def run_stage(stage, **inputs):
    return {"inputs": inputs, "stages": [{"out": "r", **stage}]}


@pytest.mark.parametrize(
    "command, spec, field",
    [
        ("chart", {"scores": [[1.0, 2.0], [3.0, 5.0]], "rank": 1.7}, "chart.rank"),
        ("chart", {"scores": [[1.0, 2.0], [3.0, 5.0]], "rank": "two"}, "chart.rank"),
        ("run", {"seed": "x", "stages": []}, "seed"),
        ("ffn-check", {**FFN_2X2, "samples": 2.5}, "ffn-check.samples"),
        ("ffn-check", {**FFN_2X2, "samples": 0}, "ffn-check.samples"),
        ("ffn-check", {**FFN_2X2, "seed": "x"}, "ffn-check.seed"),
        ("ffn-check", {**FFN_2X2, "tolerance": "x"}, "ffn-check.tolerance"),
        ("anchor", {"mode": "row", "kernel": [[1, 0], [1, 1]]}, "anchor.kernel"),
        (
            "run",
            {"stages": [{"op": "center_scores", "out": "c",
                         "scores": [[1.0, 2.0], [3.0, 4.0]], "mode": "bogus"}]},
            "stages[0].mode",
        ),
        # A "-inf" where only finite matrices make sense.
        ("attn", {**ATTN_2X2, "embeddings": [[1.0, "-inf"], [0.0, 1.0]]}, "attn.embeddings"),
        ("attn", {**ATTN_2X2, "w_v": [[1.0, "-inf"], [0.0, 1.0]]}, "attn.w_v"),
        ("ffn-check", {**FFN_2X2, "w1": [["-inf", 0.0], [0.0, 1.0]]}, "ffn-check.w1"),
        (
            "run",
            {"stages": [{"op": "row_anchor", "kernel": [[1.0, 1.0]], "out": "c"},
                        {"op": "conditional_update", "family": "c",
                         "values": [[1.0], ["-inf"]], "out": "u"}]},
            "stages[1].values",
        ),
        ("stage-run", {**STAGE_RUN_2X2, "initial": [[1.0, "-inf"], [0.0, 1.0]]},
         "stage-run.initial"),
        # Values whose rows do not match the weight columns.
        (
            "run",
            {"stages": [{"op": "row_anchor", "kernel": [[1.0, 1.0]], "out": "c"},
                        {"op": "conditional_update", "family": "c", "values": [[1.0]],
                         "out": "u"}]},
            "stages[1].values",
        ),
        (
            "run",
            {"stages": [{"op": "sinkhorn_balanced", "kernel": [[1.0, 1.0]] * 2,
                         "mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0], "out": "p"},
                        {"op": "plan_update", "plan": "p", "values": [[1.0]], "out": "u"}]},
            "stages[1].values",
        ),
        # Numbers, strings and objects read strictly.
        ("attn", {**ATTN_2X2, "tau": "0.5"}, "attn.tau"),
        ("attn", {**ATTN_2X2, "tau": True}, "attn.tau"),
        ("attn", {**ATTN_2X2, "tau": []}, "attn.tau"),
        ("attn", {**ATTN_2X2, "prior": [[1.0, 0.0], [1.0, 1.0]]}, "attn.prior"),
        ("run", run_stage({"op": "assemble_kernel", "scores": EYE, "tau": "1"}), "stages[0].tau"),
        ("run", run_stage({"op": []}), "stages[0].op"),
        ("run", {"inputs": [], "stages": []}, "inputs"),
        ("anchor", {"mode": 3, "kernel": EYE}, "anchor.mode"),
        ("ffn-check", {**FFN_2X2, "activation": []}, "ffn-check.activation"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": 3}, "stage-run.cfg"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"chart": "rms"}}, "stage-run.cfg.chart"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"chart": {"eps": "0"}}},
         "stage-run.cfg.chart.eps"),
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [{**STEP_2X2, "attn": True}]},
         "stage-run.schedule[0].attn"),
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [{**STEP_2X2, "ffn": "x"}]},
         "stage-run.schedule[0].ffn"),
        # Refinement maps and bucket counts are JSON integers.
        (
            "stage-run",
            {**STAGE_RUN_2X2, "schedule": [
                {**STEP_2X2, "refine": {"map": [0, 0.7], "n_coarse": 1}}]},
            "stage-run.schedule[0].refine.map",
        ),
        (
            "stage-run",
            {**STAGE_RUN_2X2, "schedule": [
                {**STEP_2X2, "refine": {"map": [0, 0], "n_coarse": 1.9}}]},
            "stage-run.schedule[0].refine.n_coarse",
        ),
        ("run", run_stage({**PUSHFORWARD, "map_x": {"map": [0, 0.7], "n_coarse": 1}}),
         "stages[0].map_x.map"),
        ("run", run_stage({**PUSHFORWARD, "map_y": {"map": [0, 0], "n_coarse": 1.9}}),
         "stages[0].map_y.n_coarse"),
        # A negative seed names where it came from.
        ("run", {"seed": -1, "stages": []}, "seed"),
        ("ffn-check", {**FFN_2X2, "seed": -1}, "ffn-check.seed"),
        # checks is a list of known suite names.
        ("run", {"stages": [], "checks": 2.7}, "checks"),
        ("run", {"stages": [], "checks": ["gauge", []]}, "checks"),
        ("run", {"stages": [], "checks": ["gauge", "nope"]}, "checks"),
        # A stage attends under the step's mask; attn carries none.
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [
            {**STEP_2X2, "attn": {**STEP_2X2["attn"], "mask": [[1.0, 0.0], [0.0, 1.0]]}}]},
         "stage-run.schedule[0].attn.mask"),
        # A field no row lists is an error, not ignored.
        ("anchor", {"mode": "balanced", "kernel": EYE, "mu_out": [1.0, 1.0],
                    "mu_in": [1.0, 1.0], "max_iters": 1}, "anchor.max_iters"),
        ("attn", {**ATTN_2X2, "masks": [[1, 0], [1, 1]]}, "attn.masks"),
        ("run", run_stage({"op": "row_anchor", "kernel": EYE, "tau": 2.0}), "stages[0].tau"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"chart": {"epsilon": 1e-5}}},
         "stage-run.cfg.chart.epsilon"),
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [
            {**STEP_2X2, "ffn": {**FFN_2X2, "act": "relu"}}]}, "stage-run.schedule[0].ffn.act"),
        # NaN and Infinity, which Python's JSON reader accepts, are not numbers.
        ("attn", {**ATTN_2X2, "key_bias": [math.nan, 1.0]}, "attn.key_bias"),
        ("ffn-check", {**FFN_2X2, "x": [math.inf, 1.0]}, "ffn-check.x"),
        ("ffn-check", {**FFN_2X2, "b1": [math.nan, 0.0]}, "ffn-check.b1"),
        ("attn", {**ATTN_2X2, "key_bias": [-math.inf, 1.0]}, "attn.key_bias"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"chart": {"eps": math.inf}}},
         "stage-run.cfg.chart.eps"),
        # Errors the library raises on a field's value name that field.
        ("chart", {"scores": EYE, "rank": 5}, "chart.rank"),
        ("run", run_stage({"op": "scale_kernel", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                           "a": [1.0, -1.0], "b": [1.0, 1.0]}), "stages[0].a"),
        # A JSON integer beyond the range of doubles is not finite, and
        # beyond the range of an index no map entry or bucket count.
        ("run", run_stage({"op": "row_anchor", "kernel": [[10**400, 1.0], [1.0, 1.0]]}),
         "stages[0].kernel"),
        ("attn", {**ATTN_2X2, "key_bias": [10**400, 1.0]}, "attn.key_bias"),
        ("run", run_stage({**PUSHFORWARD, "map_x": {"map": [0, 10**400], "n_coarse": 1}}),
         "stages[0].map_x"),
        ("run", run_stage({**PUSHFORWARD, "map_x": {"map": [0, 0], "n_coarse": 10**400}}),
         "stages[0].map_x"),
        # An attention stage binds <out>_weights too, and takes no bound name.
        ("run", {"inputs": {"a_weights": [[5, 6], [7, 8]]},
                 "stages": [{**ATTN_2X2, "op": "attention", "out": "a"},
                            {"op": "center_scores", "scores": "a_weights", "out": "c"}]},
         "stages[0].out"),
        # A field the command would not read is refused.
        ("ffn-check", {**FFN_2X2, "x": [1, 2], "samples": 0, "seed": -5}, "ffn-check.samples"),
        ("ffn-check", {**FFN_2X2, "x": [1, 2], "seed": 3}, "ffn-check.seed"),
        ("run", run_stage({"op": "assemble_kernel", "scores": EYE,
                           "link": {"kind": "exp", "tau": 0.7}}), "stages[0].link"),
        ("run", run_stage({"op": "assemble_kernel", "scores": EYE, "slope": 2}), "stages[0].slope"),
        # A temperature that is not > 0.
        ("run", run_stage({"op": "assemble_kernel", "scores": EYE, "tau": 0}), "stages[0].tau"),
        ("attn", {**ATTN_2X2, "tau": 0}, "attn.tau"),
        ("run", run_stage({**ATTN_2X2, "op": "attention", "tau": -1}), "stages[0].tau"),
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [
            {**STEP_2X2, "attn": {**STEP_2X2["attn"], "tau": 0}}]},
         "stage-run.schedule[0].attn.tau"),
        # The staged block is the pre-norm residual one: cfg takes a chart only.
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"comp": {"kind": "additive"}}},
         "stage-run.cfg.comp"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"zero_update_on_empty": False}},
         "stage-run.cfg.zero_update_on_empty"),
        ("stage-run", {**STAGE_RUN_2X2, "cfg": {"chart": {"kind": "identity", "eps": 7}}},
         "stage-run.cfg.chart"),
        # A tolerance below 0 never passes.
        ("ffn-check", {**FFN_2X2, "tolerance": -1}, "ffn-check.tolerance"),
        # Matrix, vector and file-reference objects take only their own keys.
        ("run", run_stage({"op": "row_anchor", "kernel": {"rows": EYE, "shpae": [9, 9]}}),
         "stages[0].kernel.shpae"),
        ("run", run_stage({"op": "row_anchor", "kernel": {"rows": EYE, "shape": 3}}),
         "stages[0].kernel.shape"),
        ("run", run_stage({"op": "row_anchor", "kernel": {"rows": EYE, "shape": [2, True]}}),
         "stages[0].kernel.shape"),
        ("run", run_stage({"op": "row_anchor", "kernel": {"rows": EYE, "shape": [2, 2.0]}}),
         "stages[0].kernel.shape"),
        ("attn", {**ATTN_2X2, "key_bias": {"values": [1.0, 1.0], "junk": 3}}, "attn.key_bias.junk"),
        ("run", {"inputs": {"k": {"file": "k.json", "note": "x"}}, "stages": []},
         "inputs.k.note"),
        ("run", {"inputs": {"k": {"rows": EYE, "values": [1.0]}}, "stages": []},
         "inputs.k.values"),
        # A file that is not UTF-8 or cannot be read is named by its path,
        # as an input and as a file reference (a spec that is a string
        # names a file in the test's directory: latin1.json or folder.json).
        ("run", "latin1.json", "{tmp}/latin1.json"),
        ("attn", "folder.json", "{tmp}/folder.json"),
        ("run", {"inputs": {"k": {"file": "latin1.json"}}, "stages": []}, "{tmp}/latin1.json"),
        ("run", {"inputs": {"k": {"file": "folder.json"}}, "stages": []}, "{tmp}/folder.json"),
        # A score matrix with no columns has no means and no singular values.
        ("run", run_stage({"op": "center_scores", "scores": [[]]}), "stages[0].scores"),
        ("chart", {"scores": [[]], "rank": 0}, "chart.scores"),
        ("chart", {"scores": [[], []], "rank": 0}, "chart.scores"),
        ("run", run_stage({"op": "score_normal_form", "scores": [[]], "rank": 0}),
         "stages[0].scores"),
        ("run", {"inputs": {"s": [[]]},
                 "stages": [{"op": "center_scores", "scores": "s", "out": "c"}]},
         "stages[0].scores"),
        # Every other finite-matrix field refuses an empty side the same way.
        ("attn", {**ATTN_2X2, "embeddings": [[]]}, "attn.embeddings"),
        ("attn", {**ATTN_2X2, "w_q": [[]]}, "attn.w_q"),
        ("run", run_stage({**ATTN_2X2, "op": "attention", "embeddings": [[], []]}),
         "stages[0].embeddings"),
        ("stage-run", {**STAGE_RUN_2X2, "initial": [[]]}, "stage-run.initial"),
        ("ffn-check", {**FFN_2X2, "w1": [[]]}, "ffn-check.w1"),
        # And so does every other matrix-shaped field: scores, a kernel.
        ("run", run_stage({"op": "assemble_kernel", "scores": [[]]}), "stages[0].scores"),
        ("run", run_stage({"op": "row_anchor", "kernel": [[]]}), "stages[0].kernel"),
        ("anchor", {"kernel": [[]]}, "anchor.kernel"),
        ("attn", {**ATTN_2X2, "mask": [[]]}, "attn.mask"),
        ("anchor", {"mode": "balanced", "kernel": [[], []], "mu_out": [1.0, 1.0],
                    "mu_in": [1.0]}, "anchor.kernel"),
        ("run", {"inputs": {"k": [[]]},
                 "stages": [{"op": "row_anchor", "kernel": "k", "out": "r"}]}, "stages[0].kernel"),
    ],
)
def test_bad_fields_exit_2_and_name_the_field(tmp_path, capsys, command, spec, field):
    (tmp_path / "latin1.json").write_bytes(b'{"rows": [[1.0]], "note": "caf\xe9"}')
    (tmp_path / "folder.json").mkdir()
    if isinstance(spec, str):
        path = str(tmp_path / spec)
    else:
        path = write_config(tmp_path, "input.json", spec)
    assert main([command, path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {field.format(tmp=tmp_path)}:")


@pytest.mark.parametrize("command, spec, field", [
    ("run", {"seed": 2**64, "stages": []}, "seed"),
    ("run", {"seed": -(2**63) - 1, "stages": []}, "seed"),
    ("run", run_stage({"op": "sinkhorn_balanced", "kernel": [[1.0, 1.0]] * 2, "mu_out": [1.0, 1.0],
                       "mu_in": [1.0, 1.0], "max_iter": 2**64}), "stages[0].max_iter"),
    ("chart", {"scores": EYE, "rank": 2**70}, "chart.rank"),
    ("run", run_stage({**PUSHFORWARD, "map_x": {"map": [0, 2**64], "n_coarse": 1}}),
     "stages[0].map_x.map"),
    ("run", run_stage({**PUSHFORWARD, "map_x": {"map": [0, 0], "n_coarse": 10**30}}),
     "stages[0].map_x.n_coarse"),
    ("ffn-check", {**FFN_2X2, "samples": 2**64}, "ffn-check.samples"),
    ("ffn-check", {**FFN_2X2, "seed": 2**64}, "ffn-check.seed"),
    ("run", run_stage({"op": "row_anchor", "kernel": {"rows": EYE, "shape": [2**64, 2]}}),
     "stages[0].kernel.shape"),
])
def test_an_integer_field_refuses_a_literal_outside_64_bits(
        tmp_path, capsys, command, spec, field):
    # Such a literal reads as the nearest double, which is no JSON integer.
    assert main([command, write_config(tmp_path, "input.json", spec)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {field}: expected ")
    assert "e+" in out.err


def test_an_integer_field_reads_the_ends_of_the_64_bit_range(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, "top.json", {"seed": 2**64 - 1, "stages": []})]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1
    assert main(["run", write_config(tmp_path, "low.json", {"seed": -(2**63), "stages": []})]) == 2
    assert capsys.readouterr().err == "error: seed: must be nonnegative, got -9223372036854775808\n"


def test_refusals_say_what_is_wrong(tmp_path, capsys):
    cases = [
        ({"inputs": {"a_weights": EYE}, "stages": [{**ATTN_2X2, "op": "attention", "out": "a"}]},
         "error: stages[0].out: name 'a_weights' already bound\n"),
        (run_stage({"op": "assemble_kernel", "scores": EYE, "link": {"kind": "softplus"}}),
         "error: stages[0].link: unknown field; assemble_kernel takes scores, prior, tau\n"),
        (run_stage({"op": "assemble_kernel", "scores": EYE, "tau": -3}),
         "error: stages[0].tau: tau must be strictly positive, got -3.0\n"),
        (run_stage({**ATTN_2X2, "op": "attention", "tau": 0}),
         "error: stages[0].tau: tau must be strictly positive, got 0.0\n"),
        (run_stage({"op": "center_scores", "scores": EYE, "mode": "row"}),
         "error: stages[0].mode: unknown field; center_scores takes scores\n"),
        (run_stage({**PUSHFORWARD, "map_x": {"map": [0, 0], "n_coarse": 1, "fine": "base"}}),
         "error: stages[0].map_x.fine: unknown field; refinement takes map, n_coarse, coarse\n"),
    ]
    for spec, message in cases:
        assert main(["run", write_config(tmp_path, "input.json", spec)]) == 2
        assert capsys.readouterr().err == message
    cases = [
        ({"comp": {"kind": "gated"}}, "error: stage-run.cfg.comp: unknown field; cfg takes chart\n"),
        ({"zero_update_on_empty": True},
         "error: stage-run.cfg.zero_update_on_empty: unknown field; cfg takes chart\n"),
        ({"chart": {"kind": "identity", "eps": 7}},
         "error: stage-run.cfg.chart: chart kind 'identity' takes no eps, got 7.0\n"),
    ]
    for cfg, message in cases:
        spec = {**STAGE_RUN_2X2, "cfg": cfg}
        assert main(["stage-run", write_config(tmp_path, "input.json", spec)]) == 2
        assert capsys.readouterr().err == message
    cases = [
        ({**STAGE_RUN_2X2, "carrier": "base"},
         "error: stage-run.carrier: unknown field; stage-run takes initial, schedule, cfg\n"),
        ({**STAGE_RUN_2X2, "schedule": [
            {**STEP_2X2, "refine": {"map": [0, 0], "n_coarse": 1, "fine": "base"}}]},
         "error: stage-run.schedule[0].refine.fine: unknown field; "
         "refinement takes map, n_coarse, coarse\n"),
    ]
    for spec, message in cases:
        assert main(["stage-run", write_config(tmp_path, "input.json", spec)]) == 2
        assert capsys.readouterr().err == message
    spec = {**FFN_2X2, "tolerance": -1}
    assert main(["ffn-check", write_config(tmp_path, "input.json", spec)]) == 2
    assert capsys.readouterr().err == (
        "error: ffn-check.tolerance: must be a finite number >= 0, got -1.0\n"
    )
    spec = {**FFN_2X2, "x": [1, 2], "samples": 0, "seed": -5}
    assert main(["ffn-check", write_config(tmp_path, "input.json", spec)]) == 2
    assert capsys.readouterr().err == "error: ffn-check.samples: not read when x is given\n"


def test_minus_infinity_is_no_mask_hole(tmp_path, capsys):
    # JSON's -Infinity is a number, and not finite: only the string
    # "-inf" marks a hole.
    for kernel in ([[1, -math.inf], [1, 1]], [["-inf", -math.inf], [1, 1]]):
        spec = {"mode": "row", "kernel": kernel}
        assert main(["anchor", write_config(tmp_path, "input.json", spec)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: anchor.kernel: non-finite entry at (0,1)\n"


def test_a_plan_row_without_mass_is_a_numeric_failure(tmp_path, capsys):
    # Row 1 of the kernel is all holes, so the unbalanced plan carries no
    # mass there and conditioning on it has nothing to divide.
    spec = {"stages": [
        {"op": "sinkhorn_unbalanced", "kernel": [[1.0, 2.0], ["-inf", "-inf"]],
         "mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0], "out": "pl"},
        {"op": "conditional_update", "family": "pl", "values": [[1.0], [2.0]], "out": "u"},
    ]}
    assert main(["run", write_config(tmp_path, "input.json", spec)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "numeric failure: row 1 has zero total mass\n"


@pytest.mark.parametrize(
    "command, spec, field, named",
    [
        ("attn", {**ATTN_2X2, "w_k": [[1.0], [0.0]]}, "attn", ("w_q", "w_k")),
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [
            {**STEP_2X2, "attn": {**STEP_2X2["attn"], "w_k": [[1.0], [0.0]]}}]},
         "stage-run.schedule[0].attn", ("w_q", "w_k")),
        ("ffn-check", {**FFN_2X2, "x": [1.0, 2.0, 3.0]}, "ffn-check.x", ("length 2",)),
        # The solver checks marginal lengths, and scale_kernel its scalings'
        # lengths, against the kernel, and names the field that is off.
        ("anchor", {"mode": "balanced", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                    "mu_out": [1.0, 1.0, 1.0],
                    "mu_in": [1.0, 1.0]}, "anchor.mu_out", ("mu_out", "length 2")),
        ("run", run_stage({"op": "sinkhorn_unbalanced", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                           "mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0, 1.0]}),
         "stages[0].mu_in", ("mu_in", "length 2")),
        ("run", run_stage({"op": "sinkhorn_balanced", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                           "mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0, 1.0]}),
         "stages[0].mu_in", ("mu_in", "length 2")),
        ("run", run_stage({"op": "scale_kernel", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                           "a": [1.0, 1.0, 1.0], "b": [1.0, 1.0]}), "stages[0].a",
         ("a must have length 2",)),
        ("run", run_stage({"op": "scale_kernel", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                           "a": [1.0, 1.0], "b": [1.0]}), "stages[0].b",
         ("b must have length 2",)),
    ],
)
def test_shape_errors_exit_2_and_name_the_field(tmp_path, capsys, command, spec, field, named):
    path = write_config(tmp_path, "input.json", spec)
    assert main([command, path]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {field}:")
    for name in named:
        assert name in out.err


BIG = [[1e200, 0.0], [0.0, 1e200]]
HUGE_W1 = [[1e308, 1e308], [1e308, 1e308]]


@pytest.mark.parametrize(
    "command, spec",
    [
        # Scores of 1e400 overflow before the softmax.
        pytest.param("attn", {**ATTN_2X2, "w_q": BIG, "w_k": BIG}, id="attn-scores"),
        pytest.param("stage-run", {**STAGE_RUN_2X2, "schedule": [
            {**STEP_2X2, "attn": {**STEP_2X2["attn"], "w_q": BIG, "w_k": BIG}}]},
            id="stage-run-scores"),
        pytest.param("ffn-check", {**FFN_2X2, "w1": HUGE_W1, "x": [1.0, 2.0]},
                     id="ffn-check-hidden"),
        pytest.param("run", run_stage({"op": "assemble_kernel",
                                       "scores": [[800.0, 0.0], [0.0, 1.0]]}),
                     id="run-link"),
        pytest.param("run", run_stage({"op": "assemble_kernel",
                                       "scores": [[700.0, 0.0], [0.0, 1.0]],
                                       "prior": [[1e300, 1.0], [1.0, 1.0]]}),
                     id="run-link-times-prior"),
        # And underflow: every link and prior is positive, so an admitted
        # 0 is out of the range of doubles too.
        pytest.param("run", run_stage({"op": "assemble_kernel",
                                       "scores": [[-800.0, 0.0], [0.0, 1.0]]}),
                     id="run-link-underflow"),
        pytest.param("run", run_stage({"op": "assemble_kernel",
                                       "scores": [[-700.0, 0.0], [0.0, 1.0]],
                                       "prior": [[1e-300, 1.0], [1.0, 1.0]]}),
                     id="run-link-times-prior-underflow"),
        # Charted rows [1, 1] put 2e308 into every hidden unit.
        pytest.param("stage-run", {"initial": [[1.0, 1.0], [1.0, 1.0]], "schedule": [
            {**STEP_2X2, "ffn": {**FFN_2X2, "w1": HUGE_W1}}]}, id="stage-run-ffn"),
        # Scores stay finite; the value row 10 * 1e308 does not.
        pytest.param("attn", {**ATTN_2X2, "embeddings": [[10.0, 0.0], [0.0, 1.0]],
                              "w_v": [[1e308, 0.0], [0.0, 1.0]]}, id="attn-output"),
        # The interaction entry 16M/9, M = 1.7e308, is past the largest double.
        pytest.param("chart", {"scores": [[1.7e308, -1.7e308, -1.7e308],
                                          [-1.7e308, 1.7e308, 1.7e308],
                                          [-1.7e308, 1.7e308, 1.7e308]], "rank": 1},
                     id="chart-centering"),
        # Centering is exact here; the singular value 2e308 is not.
        pytest.param("chart", {"scores": [[1e308, -1e308], [-1e308, 1e308]], "rank": 1},
                     id="chart-factors"),
        # Rank 0 keeps no factor; the residual 2e308 is the whole interaction.
        pytest.param("chart", {"scores": [[1e308, -1e308], [-1e308, 1e308]], "rank": 0},
                     id="chart-residual"),
        # A scaling times a kernel entry leaves the range of doubles.
        pytest.param("run", run_stage({"op": "scale_kernel", "kernel": [[1e300, 1.0], [1.0, 1.0]],
                                       "a": [1e300, 1.0], "b": [1.0, 1.0]}),
                     id="run-scale-overflow"),
        pytest.param("run", run_stage({"op": "scale_kernel", "kernel": [[1e-300, 1.0], [1.0, 1.0]],
                                       "a": [1e-300, 1.0], "b": [1.0, 1.0]}),
                     id="run-scale-underflow"),
        pytest.param("anchor", {"mode": "unbalanced", "kernel": [["-inf", "-inf"]] * 2,
                                "mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0]},
                     id="anchor-unbalanced-empty-kernel"),
    ],
)
def test_overflow_and_empty_kernel_are_numeric_failures(tmp_path, capsys, command, spec):
    path = write_config(tmp_path, "input.json", spec)
    assert main([command, path]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numeric failure: ") and out.err.count("\n") == 1


def test_centering_whose_sums_overflow_succeeds(tmp_path, capsys):
    # Every mean and interaction entry is a double; the sums 2e308 are not.
    spec = run_stage({"op": "center_scores", "scores": [[1e308, 1e308], [1e308, 1e308]]})
    assert main(["run", write_config(tmp_path, "run.json", spec)]) == 0
    centered = json.loads(capsys.readouterr().out)["stages"][0]["result"]
    assert centered["grand_mean"] == 1e308 and centered["key_bias"] == [0.0, 0.0]
    spec = {"scores": [[1e308, -1e308], [1e308, 1e308]], "rank": 1}
    assert main(["chart", write_config(tmp_path, "chart.json", spec)]) == 0
    assert json.loads(capsys.readouterr().out)["key_bias"] == [5e307, -5e307]


@pytest.mark.parametrize(
    "command, spec, message",
    [
        # Row 1 of the stage mask is empty.
        ("stage-run", {**STAGE_RUN_2X2, "schedule": [{**STEP_2X2, "mask": [[1, 0], [0, 0]]}]},
         "row 1 has no admissible entries"),
        ("run", run_stage({"op": "assemble_kernel", "scores": [[1131.4]]}),
         "kernel entry overflowed to a non-finite value"),
    ],
)
def test_numeric_failures_exit_3_and_say_what_failed(tmp_path, capsys, command, spec, message):
    assert main([command, write_config(tmp_path, "input.json", spec)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"numeric failure: {message}\n"


@pytest.mark.parametrize("argv, spec, field", [
    (["check", "--suite", "gauge", "--seed", "-1"], None, "--seed"),
    (["run"], {"seed": -1, "stages": []}, "seed"),
    (["ffn-check"], {**FFN_2X2, "seed": -1}, "ffn-check.seed"),
])
def test_negative_seed_exits_2_and_names_its_source(tmp_path, capsys, argv, spec, field):
    if spec is not None:
        argv = [*argv, write_config(tmp_path, "input.json", spec)]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {field}: must be nonnegative, got -1\n"


BIG = [[0.5] * 256] * 256


@pytest.mark.parametrize("spec, field, shown", [
    ({"seed": BIG, "stages": []}, "seed", "a list of length 256"),
    ({"version": BIG, "stages": []}, "version", "a list of length 256"),
    ({"version": {str(i): i for i in range(256)}, "stages": []}, "version",
     "an object of length 256"),
    ({"checks": BIG, "stages": []}, "checks", "a list of length 256"),
    ({"checks": "x" * 100000, "stages": []}, "checks", "a string of length 100000"),
    (run_stage({"op": "sinkhorn_balanced", "kernel": [[1.0, 2.0], [3.0, 4.0]],
                "mu_out": [1.0, 1.0], "mu_in": [1.0, 1.0], "tol": BIG}),
     "stages[0].tol", "a list of length 256"),
    ({"inputs": {"k": {"shape": BIG, "rows": EYE}}, "stages": []}, "inputs.k.shape",
     "a list of length 256"),
])
def test_a_refusal_names_a_large_value_by_its_length(tmp_path, capsys, spec, field, shown):
    # Printed whole, a 256 x 256 value makes a 328 KB line. A short value
    # is still printed whole, as in
    # test_an_integer_field_refuses_a_literal_outside_64_bits.
    assert main(["run", write_config(tmp_path, "config.json", spec)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {field}: expected ")
    assert out.err.endswith(f", got {shown}\n")
    assert out.err.count("\n") == 1 and len(out.err.encode()) < 200


GOLDEN = Path(__file__).parent / "golden"
# Integers beyond every double go in lists only: a bare one as samples
# would run that many samples.
SWEEP_VALUES = ["x", True, -1, 2.7, [], {}, None, [[1, "-inf"]], 0, math.nan, math.inf,
                [[10**400, 1.0]], [10**400, 1]]
SWEEP_INPUTS = [
    ("run", json.loads((GOLDEN / "run_pipeline.json").read_text())),
    ("stage-run", json.loads((GOLDEN / "stage_run_causal.json").read_text())),
    ("anchor", json.loads((GOLDEN / "anchor_unbalanced.json").read_text())),
    ("attn", json.loads((GOLDEN / "attn_masked.json").read_text())),
    ("chart", json.loads((GOLDEN / "chart_rank1.json").read_text())),
    ("ffn-check", {**FFN_2X2, "activation": "gelu", "samples": 2, "seed": 1,
                   "tolerance": 1e-10}),
    ("anchor", {"mode": "balanced", "kernel": [[1.0, 3.0], ["-inf", 2.0]],
                "mu_out": [1.0, 1.0], "mu_in": [0.5, 1.5], "tol": 1e-9, "max_iter": 100}),
    # The fields the golden inputs leave out: staged cfg and refinement,
    # and the ops the golden pipeline does not run.
    ("stage-run", {
        "initial": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, -0.3]],
        "cfg": {"chart": {"kind": "layer_norm", "eps": 1e-5}},
        "schedule": [
            {**STEP_2X2, "mask": [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]},
            {**STEP_2X2, "refine": {"coarse": "pairs", "map": [0, 0, 1, 1], "n_coarse": 2}},
        ],
    }),
    ("run", {
        "seed": 0,
        "inputs": {"k": [[1.0, 2.0], ["-inf", 1.0]], "v": [[1.0, 0.0], [0.0, 2.0]],
                   "s": [[0.5, -0.5], [0.25, 0.0]], "p": [[1.0, 2.0], [0.5, 1.0]]},
        "stages": [
            {"op": "assemble_kernel", "scores": "s", "prior": "p", "out": "k2",
             "tau": 2.0},
            {"op": "row_anchor", "kernel": "k", "out": "c"},
            {"op": "conditional_update", "family": "c", "values": "v", "out": "u"},
            {"op": "sinkhorn_unbalanced", "kernel": "k2", "mu_out": [1.0, 1.0],
             "mu_in": [1.0, 1.0], "lam_out": 1.0, "lam_in": 2.0, "max_iter": 50,
             "out": "pl"},
            {"op": "conditional_update", "family": "pl", "values": [[1.0], [2.0]],
             "out": "u2"},
            {"op": "scale_kernel", "kernel": "k2", "a": [1.0, 2.0], "b": [0.5, 1.0],
             "out": "ks"},
            {**PUSHFORWARD, "kernel": "k2", "out": "kp",
             "map_y": {"coarse": "c", "map": [0, 1], "n_coarse": 2}},
            {**ATTN_2X2, "op": "attention", "key_bias": [0.1, 0.0], "prior": "p",
             "mask": "k", "tau": 2.0, "out": "at"},
            {"op": "center_scores", "scores": "s", "out": "cs"},
        ],
    }),
]


def field_paths(obj, path=()):
    """The path of every field of obj: each dict value, and each object
    in a list of objects, recursively."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list) and obj and all(isinstance(v, dict) for v in obj):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


def test_any_value_in_any_field_exits_with_a_contract_code(tmp_path, capsys):
    path = tmp_path / "input.json"
    for command, spec in SWEEP_INPUTS:
        for field in field_paths(spec):
            for value in SWEEP_VALUES:
                bad = json.loads(json.dumps(spec))
                node = bad
                for key in field[:-1]:
                    node = node[key]
                node[field[-1]] = value
                path.write_text(json.dumps(bad))
                code = main([command, str(path)])
                capsys.readouterr()
                assert code in (0, 2, 3, 4), (command, field, value, code)


# Fields that the commands read before they pick a row.
OUTSIDE_ROWS = [
    ("stage", "op", "string", "yes"),
    ("stage", "out", "string", "yes"),
    ("anchor", "mode", "string", "no"),
]


def cli_field_rows():
    """(object, field, kind, required) for every field of every row the
    commands read, nested rows included, each object once."""
    rows, seen = list(OUTSIDE_ROWS), set()

    def walk(row):
        if row.name in seen:
            return
        seen.add(row.name)
        for fields, required in ((row.required, "yes"), (row.optional, "no")):
            for key, kind in fields.items():
                if isinstance(kind, list):
                    text = f"list of `{kind[0].name}` objects"
                elif isinstance(kind, cli._Row):
                    text = f"`{kind.name}` object"
                else:
                    text = kind
                rows.append((row.name, key, text, required))
        for kind in (*row.required.values(), *row.optional.values()):
            if isinstance(kind, (list, cli._Row)):
                walk(kind[0] if isinstance(kind, list) else kind)

    for row in (cli._RUN, *cli._OPS.values(), cli._STAGE_RUN, cli._FFN_CHECK):
        walk(row)
    return rows


def readme_field_rows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n### Fields\n", 1)[1].split("\n## ", 1)[0]
    return [
        (obj.strip("`"), name.strip("`"), kind, required)
        for line in section.splitlines()
        if line.startswith("| `")
        for obj, name, kind, required in [[cell.strip() for cell in line.strip("|").split("|")]]
    ]


def test_readme_field_table_matches_the_cli_rows():
    readme, rows = readme_field_rows(), cli_field_rows()
    assert len(readme) == len(set(readme)), "a README row is listed twice"
    assert sorted(set(rows) - set(readme)) == [], "missing from the README"
    assert sorted(set(readme) - set(rows)) == [], "in the README but not in the CLI"
