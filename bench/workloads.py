"""The benchmark's request lists, built from a workload seed.

Each request is the argv of one `matchow` invocation plus a check of its
output against `reference`.  The seed sets `--seed` for pp and stable,
relabels the ground set (edge order and vertex names of graphs, element
labels of explicit bases) and shuffles the order of explicit bases.  The
answers are invariant under relabelling, so the expected values do not
depend on the seed; element order still changes the code paths, because
flags, greedy bases and lex order all follow it.  The seed also shuffles
the order of the requests, so requests of similar cost are spread over a
pass instead of sampling the machine at one moment.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

import reference
from reference import Edge, Expected

METHODS = ("lex", "pp", "stable", "tropical")

K4 = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
FIG1 = [(0, 1), (1, 2), (2, 0), (2, 3)]  # triangle with a pendant edge
K5 = list(itertools.combinations(range(5), 2))
DOMINO = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
W5 = [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]

Check = Callable[[int, str], Optional[str]]


class Request(NamedTuple):
    argv: List[str]
    check: Check


# ---------------------------------------------------------------------------
# Output checks: each returns None when correct, else what was wrong
# ---------------------------------------------------------------------------


def _payload(code: int, out: str):
    if code != 0:
        raise _Wrong(f"exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        raise _Wrong(f"output is not JSON: {out[:80]!r}") from None


class _Wrong(Exception):
    pass


def _checker(body: Callable[[dict], Optional[str]]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        try:
            return body(_payload(code, out))
        except _Wrong as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    return check


def _expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, want {want!r}"


def check_deg(exp: Expected, k: int, method: str) -> Check:
    return _checker(
        lambda p: _expect("k", p["k"], k)
        or _expect("method", p["method"], method)
        or _expect("value", p["value"], str(exp.mu[k]))
    )


def check_crosscheck(exp: Expected) -> Check:
    def body(p: dict) -> Optional[str]:
        rows = p["rows"]
        wrong = _expect("pass", p["pass"], True) or _expect("rows", len(rows), exp.rank)
        for k, row in enumerate(rows):
            for col in p["methods"] + p["oracles"]:
                wrong = wrong or _expect(f"k={k} {col}", row[col], str(exp.mu[k]))
        return (
            wrong
            or _expect("mu", p["mu"], [str(v) for v in exp.mu])
            or _expect("char_poly", p["char_poly"], reference.poly_text(exp.char_poly))
        )

    return _checker(body)


def check_invariants(exp: Expected) -> Check:
    return _checker(
        lambda p: _expect("rank", p["rank"], exp.rank)
        or _expect("flats_by_rank", p["flats_by_rank"], list(exp.flats_by_rank))
        or _expect("char_poly", p["char_poly"], reference.poly_text(exp.char_poly))
        or _expect("mu", p["mu"], [str(v) for v in exp.mu])
    )


def check_balancing(exp: Expected) -> Check:
    r = exp.rank - 1
    return _checker(
        lambda p: _expect("pass", p["pass"], True)
        or _expect("fans", len(p["fans"]), 1 + r * (r + 1) // 2)
        or _expect("balanced", all(f["balanced"] for f in p["fans"]), True)
        or _expect("flags", p["fans"][0]["cones"], exp.complete_flags)
    )


# ---------------------------------------------------------------------------
# Seeded inputs, written during set-up
# ---------------------------------------------------------------------------


class Inputs:
    """Writes relabelled input files into one directory."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def _write(self, name: str, payload: dict) -> List[str]:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(payload))
        return [str(path)]

    def graph(self, name: str, edges: Sequence[Edge]) -> List[str]:
        """--graph FILE with shuffled edge order and renamed vertices."""
        vertices = sorted({v for e in edges for v in e})
        names = dict(zip(vertices, self.rng.sample(range(100), len(vertices))))
        shuffled = [[names[u], names[v]] for u, v in edges]
        self.rng.shuffle(shuffled)
        return ["--graph"] + self._write(name, {"edges": shuffled})

    def bases(self, name: str, n: int, bases: Sequence[Sequence[int]]) -> List[str]:
        """--bases FILE with permuted element labels and shuffled basis order."""
        label = self.rng.sample(range(n), n)
        relabelled = [sorted(label[e] for e in b) for b in bases]
        self.rng.shuffle(relabelled)
        return ["--bases"] + self._write(name, {"n_elements": n, "bases": relabelled})


def spanning_trees(edges: Sequence[Edge]) -> List[tuple]:
    """Edge-index sets of the spanning trees, by union-find."""
    vertices = {v for e in edges for v in e}

    def acyclic(subset) -> bool:
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in subset:
            a, b = (find(v) for v in edges[i])
            if a == b:
                return False
            parent[a] = b
        return True

    return [
        s for s in itertools.combinations(range(len(edges)), len(vertices) - 1) if acyclic(s)
    ]


def fano_bases() -> List[tuple]:
    """Triples of nonzero vectors of GF(2)^3 that are not lines (a^b^c != 0)."""
    return [
        (a - 1, b - 1, c - 1)
        for a, b, c in itertools.combinations(range(1, 8), 3)
        if a ^ b ^ c
    ]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _deg(matroid: List[str], exp: Expected, method: str, seed: int) -> List[Request]:
    extra = ["--seed", str(seed)] if method in ("pp", "stable") else []
    return [
        Request(
            ["deg", *matroid, "--k", str(k), "--method", method, *extra, "--json"],
            check_deg(exp, k, method),
        )
        for k in range(exp.rank)
    ]


def build_suite(seed: int, workdir: Path) -> List[Request]:
    inputs = Inputs(seed, workdir)
    matroids = [
        (["--uniform", "2", "3"], reference.uniform(2, 3)),
        (["--uniform", "2", "4"], reference.uniform(2, 4)),
        (["--uniform", "3", "4"], reference.uniform(3, 4)),
        (["--uniform", "3", "3"], reference.uniform(3, 3)),  # boolean(3)
        (["--uniform", "4", "4"], reference.uniform(4, 4)),  # boolean(4)
        (inputs.graph("k4", K4), reference.graphic(K4)),
        (inputs.bases("fano", 7, fano_bases()), reference.fano()),
        (inputs.graph("fig1", FIG1), reference.graphic(FIG1)),
    ]
    requests = []
    for matroid, exp in matroids:
        for method in METHODS:
            requests += _deg(matroid, exp, method, seed)
        requests.append(
            Request(
                ["crosscheck", *matroid, "--skip", "pp", "--skip", "stable", "--json"],
                check_crosscheck(exp),
            )
        )
    inputs.rng.shuffle(requests)
    return requests


def build_fans(seed: int, workdir: Path) -> List[Request]:
    inputs = Inputs(seed, workdir)
    matroids = [
        (inputs.graph("k5", K5), reference.graphic(K5)),
        (["--uniform", "4", "9"], reference.uniform(4, 9)),
        (inputs.graph("domino", DOMINO), reference.graphic(DOMINO)),
    ]
    requests = []
    for matroid, exp in matroids:
        for method in ("lex", "tropical"):
            requests += _deg(matroid, exp, method, seed)
        requests.append(Request(["balancing", *matroid, "--json"], check_balancing(exp)))
    inputs.rng.shuffle(requests)
    return requests


def build_bases(seed: int, workdir: Path) -> List[Request]:
    inputs = Inputs(seed, workdir)
    uniform = [(4, 10), (5, 10), (3, 14)]
    matroids = [
        (inputs.bases("k5", len(K5), spanning_trees(K5)), reference.graphic(K5)),
        (inputs.bases("w5", len(W5), spanning_trees(W5)), reference.graphic(W5)),
    ] + [
        (
            inputs.bases(f"u{r}_{n}", n, list(itertools.combinations(range(n), r))),
            reference.uniform(r, n),
        )
        for r, n in uniform
    ]
    requests = []
    for matroid, exp in matroids:
        requests.append(Request(["invariants", *matroid, "--json"], check_invariants(exp)))
        requests += _deg(matroid, exp, "lex", seed)
    inputs.rng.shuffle(requests)
    return requests


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {"suite": build_suite, "fans": build_fans, "bases": build_bases}
