"""One closed-loop client: sends the request list through matchow.cli.main.

Usage: python3 bench/worker.py SPEC.json RESULT.json

SPEC holds the argv list of every request, the measuring time, the
per-request budget, the run deadline and whether to trace.  The worker runs
whole passes over the list, one request at a time, with stdout captured,
until the next pass would end after the measuring time.  With tracing on,
passes alternate untraced and traced, so the difference of their wall times
is the tracing overhead.  RESULT gets every request's latency, exit code,
output and error, per pass, plus the peak RSS and the traced passes' self
times and counts.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter


class OverBudget(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in matchow catches it."""


def _alarm(signum, frame):
    raise OverBudget()


def run_request(main, argv, budget_s: float, tracer=None) -> list:
    """[latency_s, exit code or None, stdout, error or None] for one request."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv) if tracer is None else tracer.call("cli.request", main, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        error = f"over the {budget_s} s budget"
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed request, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if error is None and code != 0:
        error = err.getvalue().strip()[-200:] or f"exit code {code}"
    return [latency, code, out.getvalue(), error]


def run_pass(main, requests, budget_s: float, deadline: float, tracer=None,
             predicted=()) -> dict:
    results = []
    start = perf_counter()
    for argv in requests:
        if perf_counter() > deadline:
            results.append([0.0, None, "", "not run: run deadline reached"])
        else:
            results.append(run_request(main, argv, budget_s, tracer))
    pass_result = {"wall_s": perf_counter() - start, "requests": results}
    if tracer is not None:
        pass_result["self_s"] = tracer.self_times()
        pass_result["counts"] = dict(tracer.counts)
        pass_result["predicted_share"] = tracer.inclusive_share(
            set(predicted), pass_result["wall_s"]
        )
        tracer.reset()
    return pass_result


def main_loop(spec: dict) -> dict:
    from matchow.cli import main

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
    signal.signal(signal.SIGALRM, _alarm)
    started = perf_counter()
    deadline = started + spec["deadline_s"]
    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(
                run_pass(main, spec["requests"], spec["budget_s"], deadline,
                         tracer if traced else None, spec["predicted"])
            )
        finally:
            if traced:
                tracer.remove()
        passes[-1]["traced"] = traced
        longest = max(p["wall_s"] for p in passes)
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() + longest > started + spec["seconds"]:
            break
        if perf_counter() > deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024}


if __name__ == "__main__":
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    Path(result_path).write_text(json.dumps(main_loop(spec)))
