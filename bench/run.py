"""Benchmark of the matchow CLI: one closed-loop client, three workloads.

Usage:
  python3 bench/run.py --workload {suite,fans,bases} --seed N --seconds S --trace {0,1}

Set-up writes the seeded input files and times fresh interpreters importing
matchow.cli.  Then one worker process (bench/worker.py) sends the
workload's requests one at a time through matchow.cli.main for about S
seconds, in whole passes over the request list.  Every output is checked
against bench/reference.py.  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics from traced passes (bench/spans.py).  Exits 2 without a
result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from spans import LAYERS, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BUDGET_S = 20.0  # per request; a request over it counts as failed
DEADLINE_S = 150.0  # the worker starts no request after this, so a run ends within 180 s
WORKER_TIMEOUT_S = 170.0
SETUP_SAMPLES = 15
SETUP_PROBE = (
    "from time import perf_counter as t; s = t(); import matchow.cli; print(t() - s)"
)

PREDICTED = {
    "suite": ("stable", "piecewise"),
    "fans": ("tropical", "fan"),
    "bases": ("matroid",),
}

# Per-layer time metric -> the span name whose self time it sums.
SPAN_METRICS = {
    "cli.self_s": "cli.request",
    "matroid.construct_s": "matroid.construct",
    "matroid.lattice_s": "matroid.lattice",
    "matroid.char_poly_s": "matroid.char_poly",
    "matroid.whitney_s": "matroid.whitney",
    "matroid.chains_s": "matroid.chains",
    "chowlex.deg_lex_s": "chowlex.deg_lex",
    "piecewise.deg_pp_s": "piecewise.deg_pp",
    "stable.deg_stable_s": "stable.deg_stable",
    "exact.solve_linear_s": "exact.solve_linear",
    "exact.lattice_index_s": "exact.lattice_index",
    "exact.span_test_s": "exact.span_test",
    "fan.matroid_fan_s": "fan.matroid_fan",
    "fan.balancing_s": "fan.balancing",
    "tropical.deg_tropical_s": "tropical.deg_tropical",
    "tropical.divisor_s": "tropical.divisor",
    "tropical.truncation_s": "tropical.truncation",
}
COUNT_METRICS = (
    "matroid.construct_calls",
    "matroid.bases",
    "matroid.flats",
    "matroid.char_poly_calls",
    "chowlex.flags",
    "piecewise.chambers",
    "stable.triples",
    "stable.points",
    "exact.solve_linear_calls",
    "exact.lattice_index_calls",
    "exact.span_test_calls",
    "fan.cones",
    "fan.balancing_calls",
    "tropical.divisor_calls",
)


def git_sha() -> str:
    """HEAD's commit from the checkout's own .git, or 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> float:
    """Median seconds a fresh interpreter spends importing matchow.cli."""
    cmd = [sys.executable, "-c", SETUP_PROBE]
    env = child_env()
    times = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, timeout=30, capture_output=True, text=True
        )
        if i:  # the first run also writes the bytecode cache
            times.append(float(done.stdout))
    return statistics.median(times)


def run_worker(spec: dict, workdir: Path) -> dict:
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        cwd=ROOT,
        env=child_env(),
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text())


def tail_rank(n_samples: int) -> int:
    """0-based ascending position of the highest percentile with >= 10 samples beyond.

    Raises ValueError below 11 samples, where no such percentile exists.
    """
    if n_samples < 11:
        raise ValueError(f"{n_samples} samples leave fewer than 10 beyond any percentile")
    return n_samples - 11


def end_to_end(untraced: list, peak_rss_mb: float, setup_s: float) -> dict:
    latencies = sorted(r[0] for p in untraced for r in p["requests"])
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "req_tail_ms": (latencies[tail_rank(len(latencies))] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    def med(values):
        return statistics.median(list(values))

    def self_s(span: str) -> float:
        return med(p["self_s"].get(span, 0.0) for p in traced)

    def count(name: str) -> float:
        return med(p["counts"].get(name, 0) for p in traced)

    wall = med(p["wall_s"] for p in traced)
    out = {name: (self_s(span), "s") for name, span in SPAN_METRICS.items()}
    out.update({name: (count(name), "count") for name in COUNT_METRICS})
    out["piecewise.redraws"] = (count("piecewise.points_drawn") - 2 * count("piecewise.deg_pp_calls"), "count")
    out["stable.redraws"] = (count("stable.draws") - count("stable.deg_stable_calls"), "count")
    triples = count("stable.triples")
    out["stable.hit_ratio"] = (count("stable.points") / triples if triples else 0.0, "ratio")
    for layer in LAYERS:
        layer_self = med(
            sum(t for name, t in p["self_s"].items() if layer_of(name) == layer)
            for p in traced
        )
        out[f"{layer}.share"] = (layer_self / wall, "ratio")
    untraced_wall = med(p["wall_s"] for p in untraced)
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (wall - untraced_wall, "s")
    out["trace.predicted_share"] = (med(p["predicted_share"] for p in traced), "ratio")
    return out


def report_trace(workload: str, metrics: dict) -> None:
    wall = metrics["trace.wall_s"][0]
    print(f"traced wall_s {wall:.3f} s, untraced {metrics['trace.untraced_wall_s'][0]:.3f} s, "
          f"tracing overhead {metrics['trace.overhead_s'][0]:.3f} s")
    print("layer       self_s    share")
    shares = {layer: metrics[f"{layer}.share"][0] for layer in LAYERS}
    for layer, share in shares.items():
        print(f"{layer:<10} {share * wall:8.3f} {share:8.1%}")
    predicted = PREDICTED[workload]
    share = metrics["trace.predicted_share"][0]
    verdict = "holds" if share > 0.5 else "DOES NOT HOLD"
    top = max(shares, key=shares.get)
    print(f"prediction: {' + '.join(predicted)} take most of {workload} "
          f"(time under their spans {share:.1%}): {verdict}; largest self time: {top}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matchow" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        requests = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = measure_setup()
        result = run_worker(
            {
                "requests": [r.argv for r in requests],
                "seconds": args.seconds,
                "trace": bool(args.trace),
                "budget_s": BUDGET_S,
                "deadline_s": DEADLINE_S,
                "predicted": PREDICTED[args.workload],
                "src": str(SRC),
            },
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    attempted = failed = 0
    for p in passes:
        for req, (latency, code, out, error) in zip(requests, p["requests"]):
            attempted += 1
            wrong = error or req.check(code, out)
            if wrong:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {' '.join(req.argv)}: {wrong}")
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    n = len(requests)
    print(f"meta: workload={args.workload} seed={args.seed} sha={git_sha()} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()} budget_s={BUDGET_S} "
          f"seconds={args.seconds:g} requests_per_pass={n} "
          f"passes={len(untraced)} untraced + {len(traced)} traced")
    print(f"fail_frac = {failed / attempted:.4f} ({failed} of {attempted} requests)")
    print("pass wall_s: " + " ".join(
        f"{p['wall_s']:.3f}{'(traced)' if p['traced'] else ''}" for p in passes))
    if args.trace:
        metrics = per_layer(traced, untraced)
        report_trace(args.workload, metrics)
    else:
        metrics = end_to_end(untraced, result["peak_rss_mb"], setup_s)
        samples = n * len(untraced)
        pct = 100 * (tail_rank(samples) + 1) / samples
        notes = {
            "wall_s": f"median of {len(untraced)} passes over {n} requests",
            "req_p50_ms": f"median of {samples} request latencies",
            "req_tail_ms": f"p{pct:.1f} of {samples} request latencies, 10 beyond it",
            "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
            "peak_rss_mb": "worker maximum resident set size",
        }
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}  ({notes[name]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
