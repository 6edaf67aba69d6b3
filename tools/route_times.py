"""Time every route and the chain count per k on a ladder of matroids.

For each rung the matroid is built and its lattice of flats and mu-vector
are computed first, so no route's time includes them.  Then, for each k,
lex, pp, stable, tropical and the chain count by descent set run in this
one process; each value is asserted equal to mu^k, and the best wall time
of RUNS calls is printed in milliseconds.  K7 takes one run and skips pp,
whose 2^21-subset table it would fill.  Standard library only.

    python3 tools/route_times.py              # every rung, in ladder order
    python3 tools/route_times.py fano 'U(4,9)' K6

The only arguments are rung names.  Prints one header line per rung, then
one line per k.
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


def time_rung(name: str) -> List[str]:
    """The report lines of one rung: a header, then one line per k."""
    m = RUNGS[name]()
    m.lattice()
    mu = m.mu_vector()
    runs = 1 if name in LARGE else RUNS
    lines = [f"{name}  n={m.n_elements} r={m.rank() - 1}  best of {runs}, ms"]
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
