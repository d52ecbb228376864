"""attnkit benchmark: `ga` invocations in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it uses the checkout's src/. Each
invocation is a fresh interpreter (perfbench/invoke.py) that imports
attnkit.cli and calls main() on inputs generated from --seed, with
stdout sent to a real file. The next invocation starts only after the
previous one ended and its output was checked. Invocations are started
while the median cost of one still fits in --seconds, counted from the
start of the run, so input generation and set-up are part of the run.

The host's speed changes from second to second on a shared machine, so
every invocation runs a speed probe (invoke.SpeedProbe) and its times
are rescaled to the reference host speed before they are summarised.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 untraced and traced invocations alternate and it carries
the per-layer metrics, medians over the traced invocations, plus the
tracing overhead. A full record (machine notes, every invocation,
every span) goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

# Fresh interpreters that only import attnkit.cli, before the loop; the
# import of every invocation adds one more sample to setup_s.
SETUP_SAMPLES = 3
# The workloads' BLAS calls are small (n <= 512, d <= 64), and idle
# OpenBLAS workers spin, which adds CPU time that varies from run to run.
BLAS_THREADS = 1
# The whole run, generation and set-up included, ends within this.
LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


class OutputJudge:
    """Decides whether one invocation succeeded.

    An invocation fails on a nonzero exit, on stdout that the workload's
    check rejects, or on stdout that differs from the run's first
    invocation (a fixed input must give byte-identical output). The
    check runs once per distinct stdout.
    """

    def __init__(self, check):
        self.check = check
        self.reference = None
        self.verdicts = {}

    def problems(self, exit_code, stdout: bytes) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        digest = hashlib.sha256(stdout).hexdigest()
        if self.reference is None:
            self.reference = digest
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self.check(stdout)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                self.verdicts[digest] = [f"report is malformed: {exc!r}"]
        problems = list(self.verdicts[digest])
        if digest != self.reference:
            problems.append("stdout differs from the run's first invocation")
        return problems


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("GA_SEED", None)  # it would override the generated seeds
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts invocation processes, one at a time."""

    def __init__(self, workdir: Path, env: dict, deadline: float):
        self.workdir = workdir
        self.env = env
        self.deadline = deadline

    def _child(self, extra: list, stdout_path: Path) -> tuple:
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "invoke.py"), "--result", str(result_path), *extra]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stdout_path, "wb") as out, open(self.workdir / "stderr.txt", "wb") as err:
            try:
                proc = subprocess.run(
                    cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env, timeout=timeout
                )
            except subprocess.TimeoutExpired:
                return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result_path.exists():
            tail = (self.workdir / "stderr.txt").read_text(errors="replace")[-400:]
            return None, f"invocation process exited {proc.returncode}: {tail}"
        return json.loads(result_path.read_text()), None

    def import_time(self) -> dict | None:
        result, _ = self._child(["--import-only"], self.workdir / "import.out")
        return result

    def invoke(self, argv: list, index: int, traced: bool, judge: OutputJudge) -> dict:
        stdout_path = self.workdir / "stdout.json"
        spans_path = self.workdir / "spans.json"
        extra = ["--spans", str(spans_path), "--invocation", str(index)] if traced else []
        started = time.monotonic()
        result, error = self._child([*extra, "--", *argv], stdout_path)
        row = {"index": index, "traced": traced}
        if result is None:
            row["problems"] = [error]
        else:
            row.update(result)
            row["problems"] = judge.problems(result["exit_code"], stdout_path.read_bytes())
            if traced:
                row["trace"] = json.loads(spans_path.read_text())
        stdout_path.unlink(missing_ok=True)
        row["cost_s"] = time.monotonic() - started
        return row


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timed(rows: list) -> list:
    """Untraced invocations that ran; the failed ones only if every
    invocation failed."""
    ran = [r for r in rows if not r["traced"] and "wall_s" in r]
    return [r for r in ran if not r["problems"]] or ran


def _end_to_end(rows: list, setup: list) -> dict:
    """Medians over the untraced invocations, whose number is in
    `attempted`, of their times at the reference host speed. A median
    does not drift with the number of samples, so a faster or slower
    program is not also judged by a different statistic."""
    timed = _timed(rows)
    values = {
        "wall_s": statistics.median(r["wall_ref_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_ref_s"] for r in timed),
        "setup_s": statistics.median(s["import_ref_s"] for s in setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_ratio": sum(1 for r in rows if not r["problems"]) / len(rows),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def _per_layer(rows: list) -> dict:
    traced = [r for r in rows if r["traced"] and "trace" in r]
    untraced = [r["wall_s"] for r in rows if not r["traced"] and "wall_s" in r]
    out = {
        name: _metric(statistics.median(r["trace"]["metrics"][name] for r in traced), unit)
        for name, unit in spans.METRICS.items()
        if not name.startswith("trace.")
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = _metric(traced_wall, "s")
    out["trace.overhead_ratio"] = _metric(traced_wall / statistics.median(untraced), "ratio")
    return out


def _span_table(rows: list) -> list:
    """Lines of median total and self time per span name, largest self
    time first, as a share of the root span."""
    per_name = {}
    for row in rows:
        if not row.get("trace"):
            continue
        records = row["trace"]["spans"]
        own = spans.self_times(records)
        sums = {}
        for span in records:
            entry = sums.setdefault(span["name"], [0, 0, 0])
            entry[0] += span["end_ns"] - span["start_ns"]
            entry[1] += own[span["id"]]
            entry[2] += 1
        for name, entry in sums.items():
            per_name.setdefault(name, []).append(entry)
    if not per_name.get(spans.ROOT):
        return []
    root = statistics.median(e[0] for e in per_name[spans.ROOT])
    table = []
    for name, entries in per_name.items():
        total = statistics.median(e[0] for e in entries)
        own = statistics.median(e[1] for e in entries)
        calls = statistics.median(e[2] for e in entries)
        table.append((own, f"  {name:<28} self {own / 1e9:8.3f} s ({own / root:6.1%})"
                           f"  total {total / 1e9:8.3f} s  calls {calls:g}"))
    return [line for _, line in sorted(table, reverse=True)]


def _summary(args, rows, setup, metrics, notes) -> list:
    failed = [r for r in rows if r["problems"]]
    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"invocations {len(rows)} ({len(failed)} failed)",
        "machine " + json.dumps(notes, sort_keys=True),
    ]
    timed = _timed(rows)
    samples = [
        (f"untraced {key}", [r[key] for r in timed if key in r])
        for key in ("wall_s", "wall_ref_s", "cpu_s", "cpu_ref_s", "peak_rss_mb")
    ]
    samples += [(f"setup {key}", [s[key] for s in setup]) for key in ("import_s", "import_ref_s")]
    for label, values in samples:
        if values:
            lo, hi = _quartiles(values)
            lines.append(
                f"  {label:<21} median {statistics.median(values):.4f}  "
                f"p25 {lo:.4f}  p75 {hi:.4f}  n={len(values)}"
            )
    for row in failed:
        lines.append(f"  invocation {row['index']} failed: {'; '.join(row['problems'])[:300]}")
    absent = sorted({a for r in rows for a in (r.get("trace") or {}).get("absent", [])})
    if absent:
        lines.append("  absent (not wrapped): " + ", ".join(absent))
    if args.trace:
        lines.append("  spans by self time (median per traced invocation):")
        lines += _span_table(rows)
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return lines


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="attnkit benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, tiny: bool = False) -> int:
    """Runs one workload; `tiny` selects the self-test's sizes."""
    args = _parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "attnkit" / "cli.py").is_file():
        sys.stderr.write(f"error: no attnkit sources under {ROOT / 'src'}\n")
        return 2
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    try:
        instance = workloads.generate(args.workload, args.seed, workdir, tiny=tiny)
        runner = Runner(workdir, _child_env(), started + LIMIT_S)
        runner.import_time()  # compiles bytecode and fills the file cache
        setup = [runner.import_time() for _ in range(SETUP_SAMPLES)]
        if None in setup:
            sys.stderr.write("error: a fresh interpreter could not import attnkit.cli\n")
            return 1
        judge = OutputJudge(instance.check)
        rows = []
        while True:
            now = time.monotonic()
            need_pair = args.trace and len(rows) < 2
            if rows and not need_pair:
                cost = statistics.median(r["cost_s"] for r in rows)
                if now - started + cost > args.seconds:
                    break
            if now > started + LIMIT_S - 5:
                break
            row = runner.invoke(instance.argv, len(rows), args.trace and len(rows) % 2 == 1, judge)
            rows.append(row)
            if "import_s" in row:
                setup.append({k: row[k] for k in ("import_s", "import_ref_s")})
        if not any(not r["traced"] and "wall_s" in r for r in rows) or (
            args.trace and not any("trace" in r for r in rows)
        ):
            for row in rows:
                sys.stderr.write(f"invocation {row['index']}: {row['problems']}\n")
            sys.stderr.write("error: no invocation produced timings\n")
            return 1
        metrics = _per_layer(rows) if args.trace else _end_to_end(rows, setup)
        notes = machine.notes(ROOT, BLAS_THREADS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in rows if r["problems"])
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": notes,
        "setup_samples": setup,
        "invocations": rows,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    for line in _summary(args, rows, setup, metrics, notes):
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
