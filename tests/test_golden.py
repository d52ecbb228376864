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
samples through a gelu block, whose pre-activations reach both
branches of the erf) were pinned just before the harness's per-property
worst and witness tracking moved into one recorder.
"""

import json
from pathlib import Path

import pytest

from attnkit.cli import main
from attnkit.matio import dump_canonical

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "run_pipeline": (["run", str(GOLDEN / "run_pipeline.json")], 0),
    "stage_run_causal": (["stage-run", str(GOLDEN / "stage_run_causal.json")], 0),
    "anchor_unbalanced": (["anchor", str(GOLDEN / "anchor_unbalanced.json")], 0),
    "attn_masked": (["attn", str(GOLDEN / "attn_masked.json")], 0),
    "chart_rank1": (["chart", str(GOLDEN / "chart_rank1.json")], 0),
    "ffn_check_gelu": (["ffn-check", str(GOLDEN / "ffn_check_gelu.json")], 0),
    "check_all_seed0": (["check", "--seed", "0"], 0),
    "check_all_seed0_tol0": (["check", "--seed", "0", "--tol", "0"], 4),
    "check_all_seed5": (["check", "--seed", "5"], 0),
    "check_gauge_seed0": (["check", "--suite", "gauge", "--seed", "0"], 0),
    "check_sinkhorn_barrier_seed0": (
        ["check", "--suite", "sinkhorn", "--suite", "barrier", "--seed", "0"], 0
    ),
}


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("GA_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


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
