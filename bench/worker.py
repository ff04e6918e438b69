"""Runs benchmark requests through zinv.cli.main in this process.

Closed loop, one client: each request starts when the previous one has
returned. Requests run in whole passes over the corpus until the time is
up. The job arrives as JSON on stdin:

    {"src": ..., "warmup": argv, "cases": [argv, ...], "seconds": s, "trace": bool}

One JSON line per request goes to stdout, outside the timed region, then a
summary line. Between requests, at most every speed.EVERY_S seconds, the
worker times speed.calibrate(); the calibrations go into the summary. With
"trace", every request runs twice in a row, untraced and then under the span
tracer, which gives the tracing overhead; the spans go into the summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def timed_request(main, argv):
    """(seconds, exit code or None if it raised, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaped exception is a failed request, not a dead run
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import zinv
    import zinv.cli

    here = os.path.realpath(zinv.__file__)
    if not here.startswith(os.path.realpath(job["src"]) + os.sep):
        raise SystemExit(f"zinv imported from {here}, not from {job['src']}")
    import speed
    from spans import Tracer

    emit = sys.stdout.write
    cases = job["cases"]
    calibrations = []
    timed_request(zinv.cli.main, job["warmup"])

    tracer = Tracer()

    def passes(deadline):
        # whole passes over the corpus, so every case is weighed equally
        while True:
            yield from range(len(cases))
            if time.perf_counter() >= deadline:
                return

    for i in passes(time.perf_counter() + job["seconds"]):
        # with tracing, each request runs untraced and then traced
        for traced in (False, True) if job["trace"] else (False,):
            now = time.perf_counter()
            if not calibrations or now - calibrations[-1][0] >= speed.EVERY_S:
                calibrations.append((now, speed.calibrate()))
            if traced:
                tracer.request += 1
                tracer.install()
            start = time.perf_counter()
            lat, rc, out, err = timed_request(zinv.cli.main, cases[i])
            if traced:
                tracer.uninstall()
            emit(json.dumps({"case": i, "traced": traced, "start": start, "latency_s": lat,
                             "rc": rc, "stdout": out, "stderr": err}) + "\n")
    summary = {
        "calibrations": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans,
    }
    emit(json.dumps(summary) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
