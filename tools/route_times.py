"""Time the matroid layer, the fan layer, and every route and the chain
count per k, on a ladder of matroids.

For each rung the matroid layer is timed first on fresh matroids: the
construction from the explicit bases (which runs the exchange check), the
lattice of flats alone, and the first `char_poly` call with the lattice
built (the Moebius values and the NBC walk).  Then the rung's lattice of
flats and mu-vector are computed, so no later time includes them.  The fan
layer is `matroid_fan`, and the balancing check: what the `balancing`
command computes, the matroid fan and every truncation window each built,
checked by `is_balanced` and dropped in turn, each asserted balanced.  For
each k, lex, pp, stable, tropical and the chain count by descent set run
in this one process; each value is asserted equal to mu^k.  Every time
printed is in milliseconds per call: the least mean over BATCHES batches,
each of which repeats the call until the calls have taken BATCH_S seconds
in all, so that sub-millisecond stages are resolved on a loaded machine.
Untimed set-up, such as the fresh matroid a lattice is built on, runs
before each call.  K7 takes one call per stage and skips pp, whose
2^21-subset table it would fill.  Standard library only.

    python3 tools/route_times.py              # every rung, in ladder order
    python3 tools/route_times.py fano 'U(4,9)' K6

The only arguments are rung names.  Prints one header line per rung, one
line of matroid-layer times, one of fan-layer times, then one line per k.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matchow import (  # noqa: E402
    Matroid,
    deg_lex,
    deg_pp,
    deg_stable,
    deg_tropical,
    is_balanced,
    matroid_fan,
    truncation_weight,
)


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
BATCHES = 5
BATCH_S = 0.010
LARGE = {"K7"}  # one call per stage, and no pp


def best_ms(call: Callable, expected, large: bool, setup: Callable = lambda: None) -> float:
    """The least mean time per call, in ms, of call(setup()) over the
    batches; only the call is timed, and each must return expected."""
    best = float("inf")
    batch_s = 0.0 if large else BATCH_S
    for _ in range(1 if large else BATCHES):
        spent, calls = 0.0, 0
        while calls == 0 or spent < batch_s:
            arg = setup()
            start = time.perf_counter()
            value = call(arg)
            spent += time.perf_counter() - start
            calls += 1
            if value != expected:
                raise AssertionError(f"got {value}, expected {expected}")
        best = min(best, spent / calls)
    return best * 1e3


def layer_times(m: Matroid, large: bool) -> str:
    """The times, in ms per call, of the construction, the lattice and
    char_poly, each stage run on a fresh copy of m; each result must equal m's."""
    bases = [sorted(b) for b in m.bases]

    def fresh(_=None) -> Matroid:
        return Matroid(m.n_elements, bases)

    def with_lattice() -> Matroid:
        copy = fresh()
        copy.lattice()
        return copy

    times = (
        ("construct", best_ms(fresh, m, large)),
        ("lattice", best_ms(lambda c: c.lattice().flats_by_rank, m.lattice().flats_by_rank,
                            large, fresh)),
        ("char_poly", best_ms(lambda c: c.char_poly(), m.char_poly(), large, with_lattice)),
    )
    return "  " + "  ".join(f"{stage} {t:.3f}" for stage, t in times)


def fan_times(m: Matroid, large: bool) -> str:
    """The times, in ms per call, of matroid_fan and of balancing the matroid
    fan and every truncation window, one fan alive at a time; each fan must
    balance."""
    r = m.rank() - 1
    windows = [(r1, r2) for r1 in range(1, r + 1) for r2 in range(r1, r + 1)]

    def balancing(_) -> List[bool]:
        verdicts = [is_balanced(matroid_fan(m))[0]]
        verdicts += [is_balanced(truncation_weight(m, *window))[0] for window in windows]
        return verdicts

    times = (
        ("matroid_fan", best_ms(lambda _: matroid_fan(m), matroid_fan(m), large)),
        ("balancing", best_ms(balancing, [True] * (1 + len(windows)), large)),
    )
    return "  " + "  ".join(f"{stage} {t:.3f}" for stage, t in times)


def time_rung(name: str) -> List[str]:
    """The report lines of one rung: a header, the matroid layer's times, the
    fan layer's, then one line per k."""
    m = RUNGS[name]()
    large = name in LARGE
    how = "one call" if large else f"best of {BATCHES} batches of {BATCH_S * 1e3:g} ms"
    m.lattice()
    mu = m.mu_vector()
    lines = [
        f"{name}  n={m.n_elements} r={m.rank() - 1}  ms per call, {how}",
        layer_times(m, large),
        fan_times(m, large),
    ]
    for k, expected in enumerate(mu):
        cells = []
        for route, deg in ROUTES.items():
            if route == "pp" and large:
                cells.append("pp -")
            else:
                cells.append(f"{route} {best_ms(lambda _: deg(m, k), expected, large):.3f}")
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
