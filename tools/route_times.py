"""Time the matroid layer, and every route and the chain count per k, on a
ladder of matroids.

For each rung the matroid layer is timed first on fresh matroids: the
construction from the explicit bases (which runs the exchange check), the
lattice of flats alone, and the first `char_poly` call with the lattice
built (the Moebius values and the NBC walk).  Then the rung's lattice of
flats and mu-vector are computed, so no route's time includes them.  For
each k, lex, pp, stable, tropical and the chain count by descent set run
in this one process; each value is asserted equal to mu^k.  Every time
printed is the best wall time of RUNS calls, in milliseconds.  K7 takes one run and skips pp,
whose 2^21-subset table it would fill.  Standard library only.

    python3 tools/route_times.py              # every rung, in ladder order
    python3 tools/route_times.py fano 'U(4,9)' K6

The only arguments are rung names.  Prints one header line per rung, one
line of matroid-layer times, then one line per k.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchow import Matroid, deg_lex, deg_pp, deg_stable, deg_tropical  # noqa: E402


def _complete_graph(n: int) -> Callable[[], Matroid]:
    return lambda: Matroid.from_graph(list(itertools.combinations(range(n), 2)))


RUNGS: Dict[str, Callable[[], Matroid]] = {
    "fano": Matroid.fano,
    "U(3,7)": lambda: Matroid.uniform(3, 7),
    "U(4,8)": lambda: Matroid.uniform(4, 8),
    "K5": _complete_graph(5),
    "U(4,9)": lambda: Matroid.uniform(4, 9),
    "K6": _complete_graph(6),
    "K7": _complete_graph(7),
}
ROUTES: Dict[str, Callable[[Matroid, int], int]] = {
    "lex": deg_lex,
    "pp": deg_pp,
    "stable": deg_stable,
    "tropical": deg_tropical,
    "chains": lambda m, k: m.chains_with_descent_set(range(1, k + 1)),
}
RUNS = 3
LARGE = {"K7"}  # one run each, and no pp


def best_ms(call: Callable[[], int], expected: int, runs: int) -> float:
    """The least wall time of runs calls, in ms; each call must return expected."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        value = call()
        best = min(best, time.perf_counter() - start)
        if value != expected:
            raise AssertionError(f"got {value}, expected mu = {expected}")
    return best * 1e3


def layer_times(m: Matroid, runs: int) -> str:
    """The best times, in ms, of the construction, the lattice and char_poly,
    each stage run on a fresh copy of m; char_poly must equal m's."""
    bases = [sorted(b) for b in m.bases]
    best = [float("inf")] * 3
    for _ in range(runs):
        marks = [time.perf_counter()]
        fresh = Matroid(m.n_elements, bases)
        marks.append(time.perf_counter())
        fresh.lattice()
        marks.append(time.perf_counter())
        poly = fresh.char_poly()
        marks.append(time.perf_counter())
        if poly != m.char_poly():
            raise AssertionError(f"char_poly {poly} of a fresh copy, expected {m.char_poly()}")
        best = [min(b, hi - lo) for b, lo, hi in zip(best, marks, marks[1:])]
    stages = ("construct", "lattice", "char_poly")
    return "  " + "  ".join(f"{stage} {t * 1e3:.3f}" for stage, t in zip(stages, best))


def time_rung(name: str) -> List[str]:
    """The report lines of one rung: a header, the matroid layer's times,
    then one line per k."""
    m = RUNGS[name]()
    runs = 1 if name in LARGE else RUNS
    lines = [
        f"{name}  n={m.n_elements} r={m.rank() - 1}  best of {runs}, ms",
        layer_times(m, runs),
    ]
    m.lattice()
    mu = m.mu_vector()
    for k, expected in enumerate(mu):
        cells = []
        for route, deg in ROUTES.items():
            if route == "pp" and name in LARGE:
                cells.append("pp -")
            else:
                cells.append(f"{route} {best_ms(lambda: deg(m, k), expected, runs):.3f}")
        lines.append(f"  k={k}  " + "  ".join(cells))
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Time every route per k on a matroid ladder.")
    parser.add_argument("rungs", nargs="*", metavar="RUNG",
                        help="rung names from " + ", ".join(RUNGS) + " (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.rungs if name not in RUNGS]
    if unknown:
        parser.error(f"unknown rung {unknown[0]!r}; choose from " + ", ".join(RUNGS))
    for name in args.rungs or RUNGS:
        for line in time_rung(name):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
