"""Golden stdout: fixed configs must keep printing the same bytes.

Each `tests/golden/<name>.stdout` is the stdout of one `ga` invocation.
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
"""

from pathlib import Path

import pytest

from attnkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "run_pipeline": ["run", str(GOLDEN / "run_pipeline.json")],
    "stage_run_causal": ["stage-run", str(GOLDEN / "stage_run_causal.json")],
    "anchor_unbalanced": ["anchor", str(GOLDEN / "anchor_unbalanced.json")],
    "check_gauge_seed0": ["check", "--suite", "gauge", "--seed", "0"],
    "check_sinkhorn_barrier_seed0": [
        "check", "--suite", "sinkhorn", "--suite", "barrier", "--seed", "0"
    ],
}


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("GA_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def test_run_out_writes_the_stdout_bytes(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(CASES["run_pipeline"] + ["--out", str(out_dir)]) == 0
    out = capsys.readouterr().out.encode()
    assert (out_dir / "report.json").read_bytes() == out
    assert out == (GOLDEN / "run_pipeline.stdout").read_bytes()
