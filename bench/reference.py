"""Expected answers for the benchmark, computed without matchow.

Nothing here imports the package under test.  Graphic matroids are checked
against the chromatic polynomial (deletion-contraction over the edge list)
and against counts of vertex partitions; uniform matroids against closed
forms; the Fano plane against pinned values.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

FANO_MU = (1, 6, 8)
FANO_FLATS_BY_RANK = (1, 7, 7, 1)
FANO_FLAGS = 21

Edge = Tuple[int, int]


class Expected(NamedTuple):
    """What a correct run reports for one matroid."""

    rank: int
    mu: Tuple[int, ...]
    flats_by_rank: Tuple[int, ...]
    complete_flags: int

    @property
    def char_poly(self) -> Tuple[int, ...]:
        """chi(q) = (q - 1) * reduced, ascending coefficients."""
        reduced = [(-1) ** k * m for k, m in enumerate(self.mu)][::-1]
        out = [0] * (len(reduced) + 1)
        for power, c in enumerate(reduced):
            out[power + 1] += c
            out[power] -= c
        return tuple(out)


def uniform(rank: int, n: int) -> Expected:
    """U(rank, n): mu^k = C(n-1, k); flats are the small subsets and E."""
    return Expected(
        rank,
        tuple(comb(n - 1, k) for k in range(rank)),
        tuple(comb(n, i) for i in range(rank)) + (1,),
        factorial(n) // factorial(n - rank + 1),
    )


def fano() -> Expected:
    return Expected(3, FANO_MU, FANO_FLATS_BY_RANK, FANO_FLAGS)


def graphic(edges: Sequence[Edge]) -> Expected:
    """Cycle matroid of a connected loopless graph."""
    vertices = sorted({v for e in edges for v in e})
    rank = len(vertices) - 1
    chrom = chromatic_polynomial(vertices, edges)
    # Connected graph: chi_M(q) = P_G(q) / q, then divide by (q - 1).
    reduced = _divide_by_q_minus_1(chrom[1:])
    mu = tuple(abs(reduced[rank - 1 - k]) for k in range(rank))
    flats, flags = _partition_counts(vertices, edges)
    return Expected(rank, mu, flats, flags)


def chromatic_polynomial(vertices: Sequence[int], edges: Sequence[Edge]) -> Tuple[int, ...]:
    """P_G(q) by deletion-contraction, ascending coefficients."""
    simple = frozenset(frozenset(e) for e in edges)
    if any(len(e) == 1 for e in simple):
        return (0,)
    return _chromatic(frozenset(vertices), simple)


@lru_cache(maxsize=None)
def _chromatic(vertices: FrozenSet[int], edges: FrozenSet[FrozenSet[int]]) -> Tuple[int, ...]:
    if not edges:
        return (0,) * len(vertices) + (1,)
    edge = min(edges, key=sorted)
    u, v = sorted(edge)
    deleted = _chromatic(vertices, edges - {edge})
    # Contract v into u; parallel copies collapse, the edge itself vanishes.
    merged = frozenset(
        frozenset(u if x == v else x for x in e) for e in edges if e != edge
    )
    contracted = _chromatic(vertices - {v}, merged)
    out = list(deleted)
    for power, c in enumerate(contracted):
        out[power] -= c
    return tuple(out)


def _divide_by_q_minus_1(coeffs: Sequence[int]) -> List[int]:
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for power in range(len(coeffs) - 1, 0, -1):
        carry += coeffs[power]
        quotient[power - 1] = carry
    if carry + coeffs[0] != 0:
        raise ArithmeticError("not divisible by q - 1")
    return quotient


def _partition_counts(
    vertices: Sequence[int], edges: Sequence[Edge]
) -> Tuple[Tuple[int, ...], int]:
    """Flats per rank and maximal chains of the bond lattice.

    A flat of a connected graph's cycle matroid is a partition of the
    vertices into connected blocks, of rank |V| - #blocks; a cover merges
    two blocks joined by an edge.
    """
    rank = len(vertices) - 1
    bottom = frozenset(frozenset([v]) for v in vertices)
    chains: Dict[FrozenSet[FrozenSet[int]], int] = {}

    def merges(partition):
        blocks = list(partition)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                if any((x in a and y in b) or (x in b and y in a) for x, y in edges):
                    yield (partition - {a, b}) | {a | b}

    def count(partition) -> int:
        if len(partition) == 1:
            return 1
        if partition not in chains:
            chains[partition] = sum(count(p) for p in merges(partition))
        return chains[partition]

    flags = count(bottom)
    per_rank = [0] * (rank + 1)
    for partition in list(chains) + [frozenset([frozenset(vertices)])]:
        per_rank[len(vertices) - len(partition)] += 1
    return tuple(per_rank), flags


def poly_text(coeffs: Sequence[int]) -> str:
    """The CLI's rendering of an integer polynomial in q (ascending input)."""
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = str(abs(c)) if power == 0 or abs(c) != 1 else ""
        var = "" if power == 0 else ("q" if power == 1 else f"q^{power}")
        body = f"{mag}*{var}" if mag and var else mag + var
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    return ("-" if sign == "-" else "") + body + "".join(f" {s} {b}" for s, b in terms[1:])

