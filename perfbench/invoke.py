"""One `ga` invocation in a fresh interpreter, timed from the inside.

    python3 perfbench/invoke.py --result R.json [--spans S.json] -- ga-args...
    python3 perfbench/invoke.py --result R.json --import-only

The caller points this process's stdout at a real file and puts src/
on PYTHONPATH. The result file gets the time of `import attnkit.cli`
and, unless --import-only, the wall and CPU time from calling
`attnkit.cli.main` to the flush of its last stdout byte, its return
code and the peak RSS of this process.

A speed probe (SpeedProbe) runs while the import and the untraced main
run. Its rounds are left out of the times above, and each time is also
given rescaled to the reference host speed (`*_ref_s`). With --spans,
attnkit's public functions are wrapped, the spans go to that file, and
main runs without the probe.
"""

import argparse
import gc
import json
import resource
import signal
import sys
import time

# A probe round runs every PROBE_INTERVAL_S of wall time. The reference
# host speed is the one at which a round takes PROBE_REFERENCE_S, about
# what it takes on an idle core of a 2-vCPU Xeon VM.
PROBE_INTERVAL_S = 0.05
PROBE_ITEMS = 1000
PROBE_REFERENCE_S = 0.0005


class SpeedProbe:
    """Samples the host's speed while the measured code runs.

    On a shared host the speed of a core changes from one second to the
    next, as other tenants' load comes and goes. A wall-clock timer
    interrupts the measured code every PROBE_INTERVAL_S and runs one
    round of fixed pure-Python work in the signal handler, so the
    rounds' times follow the speed the measured code saw, at the moments
    it saw it. `wall_s` and `cpu_s` are the rounds' own time, which the
    caller takes out of the measured interval.

    A time divided by slowdown() reads as at the reference speed: the
    measured code and the rounds ran on the same core at the same
    moments, so a host that runs them both at half speed doubles both.
    """

    def __init__(self):
        self.rounds = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._busy = False

    def _round(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        # A collection here would walk the measured code's heap and make
        # the round's time depend on it.
        collecting = gc.isenabled()
        gc.disable()
        cpu_start = time.process_time()
        start = time.perf_counter()
        values = [(i * 7919) % 1013 / 3.0 for i in range(PROBE_ITEMS)]
        table = {}
        for i, value in enumerate(values):
            table[i % 97] = table.get(i % 97, 0.0) + value * value
        ",".join(str(round(v, 3)) for v in table.values())
        elapsed = time.perf_counter() - start
        self.rounds.append(elapsed)
        self.wall_s += elapsed
        self.cpu_s += time.process_time() - cpu_start
        if collecting:
            gc.enable()
        self._busy = False

    def slowdown(self) -> float:
        """Mean round time over PROBE_REFERENCE_S; runs one round first
        if the measured code ended before the timer fired."""
        if not self.rounds:
            self._round(signal.SIGALRM, None)
        return sum(self.rounds) / len(self.rounds) / PROBE_REFERENCE_S

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _main_and_flush(cli, argv):
    code = cli.main(argv)
    sys.stdout.flush()
    return code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--invocation", type=int, default=0)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    probe = SpeedProbe()
    with probe:
        start = time.perf_counter()
        import attnkit.cli as cli

        import_s = time.perf_counter() - start - probe.wall_s
    result = {"import_s": import_s, "import_ref_s": import_s / probe.slowdown()}
    if not args.import_only:
        recorder = None
        if args.spans:
            import spans

            recorder = spans.SpanRecorder()
            absent = spans.install(recorder)
        probe = SpeedProbe()
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        if recorder is None:
            with probe:
                code = _main_and_flush(cli, argv)
        else:
            code = recorder.call(spans.ROOT, _main_and_flush, (cli, argv), {})
        result["wall_s"] = time.perf_counter() - wall_start - probe.wall_s
        result["cpu_s"] = time.process_time() - cpu_start - probe.cpu_s
        if recorder is None:
            slowdown = probe.slowdown()
            result["wall_ref_s"] = result["wall_s"] / slowdown
            result["cpu_ref_s"] = result["cpu_s"] / slowdown
            result["probe_rounds"] = len(probe.rounds)
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            records = recorder.as_json(args.invocation)
            with open(args.spans, "w") as fh:
                json.dump(
                    {
                        "absent": absent,
                        "metrics": spans.layer_metrics(records, spans.suite_of_criterion()),
                        "spans": records,
                    },
                    fh,
                )
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
