"""Golden stdout: fixed configs must keep printing the same bytes.

Each `tests/golden/<name>.stdout` is the stdout of one `ga` invocation,
and each case in CASES carries that invocation's expected exit code.
The `run`, `stage-run`, `anchor` and `check --suite gauge` files were
committed before the output writer was rewritten; the sinkhorn and
barrier report was taken from the batched samplers that now draw those
suites' instances. Any change to these bytes is a change to the output
contract and must be deliberate.

`run_pipeline`, `anchor_unbalanced` and `check_sinkhorn_barrier_seed0`
were re-pinned once when both Sinkhorn anchors moved from log-domain
iteration to stabilized scaling: plan entries moved by a few ulp, which
moves the printed plans, their marginal errors, everything computed
from them in the run pipeline, and the two sinkhorn `max_deviation`
lines of the check report. Iteration counts, `converged` flags and
every other report line kept their bytes; `check_gauge_seed0` and
`stage_run_causal` never call an anchor and did not change.

`check_all_seed0` is the whole `ga check --seed 0` report, all eight
suites, pinned from the per-comparison loops of the property harness
just before they were batched: the KL rewirings became closed-form
gaps over the four entries each one touches, and the Eckart-Young
contenders one block of draws. Same draws, same report bytes.

`check_all_seed5` is the whole `ga check --seed 5` report, pinned just
before the fixed-carrier pipeline runner was folded into
`run_schedule`. Seed 5 draws other barrier, mixture and Eckart-Young
instances than seed 0, and fewer KL comparisons in the sinkhorn suite.

`attn_masked` (a causal 0/1 mask, a prior, a key bias and tau) and
`chart_rank1` were pinned from the hand-built `ga attn` and `ga chart`
commands, just before both were rerouted through the `ga run` op table.

`check_all_seed0_tol0` is `ga check --seed 0 --tol 0`, which exits 4
and prints the witness of every property: for a worst-deviation
property the first case that reached `max_deviation`, for a count
property the first case counted. It and `ffn_check_gelu` (32 seeded
samples through a gelu block) were pinned just before the harness's
per-property worst and witness tracking moved into one recorder.

`anchor_row_huge` row-anchors a kernel whose first row sums past the
largest double; that row is normalized from its entries over its
largest one and prints [0.5, 0.5], with no numpy warning.
`anchor_balanced_huge` is the balanced anchor on marginals whose totals
pass the largest double: the masses are compared in units of their
largest entry, and the plan prints 5e307 everywhere, with no warning.

`anchor_unbalanced` was re-pinned once more when both Sinkhorn anchors
came to run one scaling loop, the unbalanced update written as
(mu / K~b) ** e * exp((e - 1) F): 8 printed numbers moved by at most 2
ulp (col_marginal[0], plan entries (0,0), (0,1), (1,0) and (2,2), and
row_marginal[0..2]); iterations, converged and marginal_error kept
their bytes, and so did every other golden file.

Every file here, and every `ga check --seed N` report in CHECK_DIGESTS,
kept its bytes when GELU's erf moved from a numpy port of Cephes' to
the C library's `math.erf`.

The four `check_gauge_seed0` and `check_all_*` files and CHECK_DIGESTS
were re-pinned once when the harness came to check the shipped code:
the Eckart-Young lines check `score_normal_form` on the double-centered
interaction, the cycle-sum suite's one line became
`interaction_keeps_cross_differences` on `center_scores`, and the
gauge suite lost `weighted_center_zero_mean`, which moves the later
draws of its other three lines. Every other property kept its bytes,
and `check_sinkhorn_barrier_seed0` did not change.

`stage_run_refine` is a 4-step `ga stage-run` whose mask is given on
step 0, carried on step 1, pushed through a refinement on step 2 and
replaced on step 3: one mask object printed twice, then two others. It
was pinned just before the output writer came to format a repeated
dict once and repeat its text.

`run_with_checks` is `run_pipeline` with the cycle-sum and ffn suites
appended. It was pinned while `attnkit.cli` still imported the harness
at start-up, just before the import moved into the commands that run
suites.

`run_every_op` is the README's minimal config (assemble_kernel,
row_anchor, conditional_update) with pushforward_kernel, scale_kernel
and sinkhorn_unbalanced stages appended, and `stage_run_layer_norm`
and `stage_run_identity_refine` are 2 x 2 `ga stage-run` inputs under
the two charts other than the default, one with a non-default `eps`,
the other with a refinement step. All three were pinned just before
the composition kinds and the zero-update switch left `ga stage-run`,
so that the pre-norm residual block that remains keeps its bytes.

`run_prior_budgets` runs `assemble_kernel` with a `prior`, then both
Sinkhorn anchors with their own `tol` and `max_iter`, each converging
in fewer than `max_iter` iterations; `stage_run_bias_prior` is a
fixed-carrier 3 x 3 `ga stage-run` whose two steps' `attn` carry a
`key_bias` and a `prior`; `ffn_check_x` is `ga ffn-check` of a tanh
block on one given `x` against `tolerance` 1e-12. All three were
pinned just before one-sided centering and the source-carrier names
left `ga`. The inputs of `run_every_op`, `stage_run_refine` and
`stage_run_identity_refine` then lost their refinements' `fine` keys,
and every stdout file kept its bytes.

test_every_field_and_kind_is_set_by_a_golden_input walks each golden
input through the rows its command reads. It fails when no golden
input sets some field of those rows, or names some `ga run` operation,
`ga anchor` mode, activation or chart kind other than the default.
"""

import hashlib
import json
import os
from collections import defaultdict
from pathlib import Path

import pytest

from attnkit import cli
from attnkit.cli import main
from attnkit.matio import dump_canonical
from attnkit.operator import _ACTIVATIONS
from attnkit.staged import ChartSpec

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "run_pipeline": (["run", str(GOLDEN / "run_pipeline.json")], 0),
    "run_with_checks": (["run", str(GOLDEN / "run_with_checks.json")], 0),
    "run_every_op": (["run", str(GOLDEN / "run_every_op.json")], 0),
    "run_prior_budgets": (["run", str(GOLDEN / "run_prior_budgets.json")], 0),
    "stage_run_causal": (["stage-run", str(GOLDEN / "stage_run_causal.json")], 0),
    "stage_run_refine": (["stage-run", str(GOLDEN / "stage_run_refine.json")], 0),
    "stage_run_layer_norm": (["stage-run", str(GOLDEN / "stage_run_layer_norm.json")], 0),
    "stage_run_identity_refine": (
        ["stage-run", str(GOLDEN / "stage_run_identity_refine.json")], 0
    ),
    "stage_run_bias_prior": (["stage-run", str(GOLDEN / "stage_run_bias_prior.json")], 0),
    "anchor_unbalanced": (["anchor", str(GOLDEN / "anchor_unbalanced.json")], 0),
    "anchor_row_huge": (["anchor", str(GOLDEN / "anchor_row_huge.json")], 0),
    "anchor_balanced_huge": (["anchor", str(GOLDEN / "anchor_balanced_huge.json")], 0),
    "attn_masked": (["attn", str(GOLDEN / "attn_masked.json")], 0),
    "chart_rank1": (["chart", str(GOLDEN / "chart_rank1.json")], 0),
    "ffn_check_gelu": (["ffn-check", str(GOLDEN / "ffn_check_gelu.json")], 0),
    "ffn_check_x": (["ffn-check", str(GOLDEN / "ffn_check_x.json")], 0),
    "check_all_seed0": (["check", "--seed", "0"], 0),
    "check_all_seed0_tol0": (["check", "--seed", "0", "--tol", "0"], 4),
    "check_all_seed5": (["check", "--seed", "5"], 0),
    "check_gauge_seed0": (["check", "--suite", "gauge", "--seed", "0"], 0),
    "check_sinkhorn_barrier_seed0": (
        ["check", "--suite", "sinkhorn", "--suite", "barrier", "--seed", "0"], 0
    ),
}


# sha256 of the `ga check --seed N` report for N = 0..6, recorded when
# the Eckart-Young, centering and cycle-sum lines moved onto
# score_normal_form and center_scores. Seeds 0 and 5 are also whole
# golden files above; the others pin the same contract on more draws.
# The bytes depend on the BLAS build's rounding.
CHECK_DIGESTS = {
    0: "83801e20b441a6d983ebd4fc9ee6b79d38aa33cb711851aeb480472fc730f8e7",
    1: "ac5167d02905e615137f0eeec9206995d8bf6a0d20d827443d6b85dc888376a7",
    2: "a6c885f62725e0062840f987afdefa1af2686fc1871c97b4f2d71782de634739",
    3: "58a9fd8de0f05d88c97d21c3a1fed5834cd02e902bcee7b9bbe497f694b2669e",
    4: "36241fd65bb32e99cf7bc49f78d0b1910572be856b031b940318eb81264910ad",
    5: "8251c3eec2733c08512c95ed769f1d44a0771c065a3329bdbbc82128f4f3ec86",
    6: "befe6c28a4b85e0e2b61862d1780b0a5c613aa9d77dab09b1f0f864b2bf4f770",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("name", sorted(name for name, (argv, _) in CASES.items()
                                         if argv[0] in ("run", "stage-run")
                                         and name != "run_with_checks"))
def test_run_and_stage_run_start_no_process(monkeypatch, capsys, name):
    # They print every array in the ga process; only the suites of a
    # ga run with checks fork (attnkit.spread).
    def fork():
        raise AssertionError("ga run and ga stage-run start no process")

    monkeypatch.setattr(os, "fork", fork)
    argv, code = CASES[name]
    assert main(argv) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize("seed", sorted(CHECK_DIGESTS))
def test_check_report_keeps_its_bytes(seed, capsys):
    assert main(["check", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == CHECK_DIGESTS[seed]


@pytest.mark.parametrize("value", ["11", "soon"])
def test_ga_seed_in_the_environment_changes_nothing(monkeypatch, capsys, value):
    # The seed comes from argv and the config alone: ga reads no
    # environment variable, GA_SEED included.
    for argv in (["check", "--suite", "gauge", "--seed", "99"], CASES["run_with_checks"][0]):
        monkeypatch.delenv("GA_SEED", raising=False)
        unset = main(argv), capsys.readouterr().out
        monkeypatch.setenv("GA_SEED", value)
        assert (main(argv), capsys.readouterr().out) == unset, argv
    assert unset == (0, (GOLDEN / "run_with_checks.stdout").read_text())


def test_run_out_writes_the_stdout_bytes(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(CASES["run_pipeline"][0] + ["--out", str(out_dir)]) == 0
    out = capsys.readouterr().out.encode()
    assert (out_dir / "report.json").read_bytes() == out
    assert out == (GOLDEN / "run_pipeline.stdout").read_bytes()


@pytest.mark.parametrize("checks", [[], ["cycle-sum"]])
def test_run_out_stage_files_are_the_canonical_stage_results(tmp_path, capsys, checks):
    config = json.loads((GOLDEN / "run_pipeline.json").read_text())
    config["checks"] = checks
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["out"] for s in report["stages"]] == [s["out"] for s in config["stages"]]
    for stage in report["stages"]:
        expected = dump_canonical(stage["result"]).encode()
        assert (out_dir / f"{stage['out']}.json").read_bytes() == expected


def _reachable_fields():
    """(row, field) of every field of every row a command reads, nested
    rows included."""
    fields, todo = set(), [cli._RUN, *cli._OPS.values(), cli._STAGE_RUN, cli._FFN_CHECK]
    while todo:
        row = todo.pop()
        for key, kind in {**row.required, **row.optional}.items():
            fields.add((row.name, key))
            if isinstance(kind, list):
                kind = kind[0]
            if isinstance(kind, cli._Row):
                todo.append(kind)
    return fields


def _set_fields(row, spec, found):
    """Add to found[row, field] the value, if a string, else None, of
    every field spec sets, walking the nested rows; keys the row does
    not list belong to the caller."""
    for key, value in spec.items():
        kind = {**row.required, **row.optional}.get(key)
        if kind is None:
            continue
        found[row.name, key].add(value if isinstance(value, str) else None)
        if isinstance(kind, cli._Row):
            _set_fields(kind, value, found)
        elif isinstance(kind, list):
            for item in value:
                _set_fields(kind[0], item, found)


def test_every_field_and_kind_is_set_by_a_golden_input():
    # Each golden input walked through the rows its command reads: each
    # `ga run` stage through its op's row, and a `ga anchor` input
    # through the row its mode picks.
    command_rows = {"attn": cli._OPS["attention"], "chart": cli._OPS["score_normal_form"],
                    "stage-run": cli._STAGE_RUN, "ffn-check": cli._FFN_CHECK}
    found, rows, modes = defaultdict(set), set(), set()
    for argv, _ in CASES.values():
        if not argv[-1].endswith(".json"):
            continue
        spec = json.loads(Path(argv[-1]).read_text())
        if argv[0] == "run":
            walks = [(cli._RUN, spec), *((cli._OPS[s["op"]], s) for s in spec["stages"])]
        elif argv[0] == "anchor":
            modes.add(spec.get("mode", "row"))
            walks = [(cli._OPS[cli._ANCHOR_OPS[spec.get("mode", "row")]], spec)]
        else:
            walks = [(command_rows[argv[0]], spec)]
        for row, obj in walks:
            rows.add(row.name)
            _set_fields(row, obj, found)
    assert sorted(_reachable_fields() - set(found)) == []
    assert sorted(set(cli._OPS) - rows) == []
    assert sorted(set(cli._ANCHOR_OPS) - modes) == []
    charts = found["cfg.chart", "kind"] | {ChartSpec().kind}
    assert sorted(set(ChartSpec.KINDS) - charts) == []
    activations = found["ffn", "activation"] | found["ffn-check", "activation"]
    assert sorted(set(_ACTIVATIONS) - activations) == []
