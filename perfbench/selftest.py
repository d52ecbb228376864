"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is emitted, with its unit, by
     every workload in both trace modes;
  2. a run-window instance capped at one Sinkhorn iteration counts as
     failed although `ga run` exits 0 on it;
  3. truncated stdout counts as failed.
Exits nonzero on the first check that does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--seconds", "1", *args], tiny=True)
    if code != 0:
        raise AssertionError(f"run.main({' '.join(args)}) returned {code}")
    return json.loads(stdout.getvalue().splitlines()[-1])


def check_metrics_emitted() -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for workload in workloads.WORKLOADS:
            result = _bench("--workload", workload, "--seed", "1", "--trace", str(trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == declared, (workload, trace, set(emitted) ^ set(declared))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (workload, name, metric)
            print(f"ok: {workload} --trace {trace} emits all {len(declared)} metrics")


def _stdout_of(workload: str, **generate_args) -> tuple:
    """Generate a tiny instance and run `ga` on it in this process;
    returns the instance, the exit code and stdout."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from attnkit.cli import main

    (run.ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.ROOT / run.WORK_DIR))
    try:
        instance = workloads.generate(workload, 1, workdir, tiny=True, **generate_args)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = main(instance.argv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return instance, code, captured.getvalue().encode()


def check_unconverged_counts_as_failed() -> None:
    instance, code, stdout = _stdout_of("run-window", max_iter=1)
    assert code == 0, code
    problems = run.OutputJudge(instance.check).problems(code, stdout)
    assert problems, "an unconverged plan passed the output check"
    print(f"ok: max_iter 1 exits 0 yet fails: {problems[0]}")


def check_truncated_stdout_fails() -> None:
    instance, code, full = _stdout_of("run-dense")
    assert code == 0, code
    judge = run.OutputJudge(instance.check)
    assert judge.problems(0, full) == []
    for cut in (len(full) // 2, len(full) - 2):
        assert judge.problems(0, full[:cut]), cut
        assert run.OutputJudge(instance.check).problems(0, full[:cut]), cut
    print("ok: truncated stdout fails, whole stdout passes")


if __name__ == "__main__":
    check_truncated_stdout_fails()
    check_unconverged_counts_as_failed()
    check_metrics_emitted()
    print("selftest passed")
