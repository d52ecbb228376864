"""The one fork pool: it spreads run_checks' criteria over the CPUs, for
ga check and a ga run with checks; no output depends on which process ran
what, or how many."""

import os
import pickle

# The job pipe holds at most _CLAIMS records of _RECORD bytes: 512, the
# smallest pipe buffer POSIX allows, so filling it never blocks.
_CLAIMS = 128
_RECORD = 4


def _workers(jobs: int) -> int:
    """One worker per CPU this process may run on, at most one per job;
    one when os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, min(len(affinity(0)) if affinity else os.cpu_count() or 1, jobs))


def _run_jobs(fn, claims) -> dict:
    """{k: fn(k)} for every k in claims, an iterable of index ranges, up
    to the first job that raises."""
    done = {}
    try:
        for claim in claims:
            for k in claim:
                done[k] = fn(k)
    except Exception:
        pass
    return done


def spread(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], with the jobs claimed from one pipe,
    in ranges, by this process and W - 1 forked children.

    A child pickles what it ran into its own pipe and leaves through
    os._exit, so no atexit handler or stdio flush runs in it. Every
    child is read and reaped before this returns or raises; a child
    that died delivers nothing. A job no process delivered, because it
    raised or its worker died, is re-run here in order, so the first
    job that raises raises here as it would in one process.
    """
    done = {}
    workers = _workers(count)
    if workers > 1:
        per_claim = -(-count // _CLAIMS)
        job_r, job_w = os.pipe()
        starts = range(0, count, per_claim)
        os.write(job_w, b"".join(k.to_bytes(_RECORD, "little") for k in starts))
        os.close(job_w)

        def claims():
            while record := os.read(job_r, _RECORD):
                k = int.from_bytes(record, "little")
                yield range(k, min(k + per_claim, count))

        children = {}
        try:
            for _ in range(workers - 1):
                out_r, out_w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no room for another process: fewer workers
                    os.close(out_r)
                    os.close(out_w)
                    break
                if pid == 0:
                    code = 1
                    try:
                        with open(out_w, "wb") as out:
                            pickle.dump(_run_jobs(fn, claims()), out)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(out_w)
                children[pid] = out_r
            done = _run_jobs(fn, claims())
        finally:
            os.close(job_r)
            for pid, out_r in children.items():
                with open(out_r, "rb") as out:
                    data = out.read()
                if os.waitpid(pid, 0)[1] == 0:
                    done.update(pickle.loads(data))
    return [done[k] if k in done else fn(k) for k in range(count)]
