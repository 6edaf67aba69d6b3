"""Degree computation via piecewise polynomials on the permutation chambers.

A class is represented by one polynomial per full-dimensional chamber of
the braid fan (chambers are indexed by permutations of the ground set).
The degree of a top-degree product is the chamber sum of
f_sigma / d_sigma with d_sigma = prod_i (t_sigma(i) - t_sigma(i+1)), which
is a constant rational function.

Representatives use the fixed reference element 0: the hyperplane class is
t_0 - t_last, the complementary class is t_first - t_0, and the matroid
class on a chamber is the product of t_0 - t_i over the elements outside
the greedy basis of that chamber's order.

Every factor of a chamber's term reads only its prefix sets
S_i = {sigma(1), ..., sigma(i)}: sigma(i) is outside the greedy basis iff
rank(S_i) = rank(S_(i-1)), the denominator is a product of steps along the
order, and the two class factors read the first and the last element.  So
`deg_pp` sums the n! chambers as a Held-Karp dynamic program over states
(prefix set, last element), with ranks from one table of 2^n bytes built by
subset transforms of the bases.

The sum is evaluated in Z/p at an integer point, and this is exact.  Let
D = prod_(a<b) (t_a - t_b).  Every d_sigma is a product of distinct
differences, so it divides D, and sum_sigma f_sigma * D / d_sigma = c * D
holds in Z[t]; D is primitive, so c is an integer.  At a point whose
coordinates are distinct mod p, D is a unit mod p, no denominator vanishes,
and the residue of the sum is c mod p.  c is the degree mu^k, a partial
alternating sum of the Whitney numbers w_i; the broken-circuit theorem
gives |w_i| <= C(n, i), so 0 <= c <= 2^n, far below p / 2 for every n a 2^n
table can hold, and the residue read in (-p/2, p/2) is c itself.  Such a
point is never degenerate, so no point is ever redrawn.  A second point
modulo a second prime must give the same reading: a sum that is not
constant, or a residue that does not read as c, fails that check.

No route calls `chambers`, `greedy_basis`, `chamber_denominator` or
`generic_point`: they spell out the n! chamber sum in `Fraction`, the
reference the tests hold the dynamic program against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from operator import mul
from typing import Sequence, Tuple

from .errors import DegeneratePoint
from .matroid import Matroid

Perm = Tuple[int, ...]
Point = Tuple[Fraction, ...]

# The two moduli: each point draws n distinct residues below its prime.
_PRIMES = (2**61 - 1, 2**62 - 57)


def chambers(n_elements: int) -> list[Perm]:
    return list(itertools.permutations(range(n_elements)))


def greedy_basis(m: Matroid, order: Sequence[int]) -> frozenset:
    """First basis in the greedy scan of the given element order."""
    chosen: set = set()
    for e in order:
        if m.rank(chosen | {e}) > len(chosen):
            chosen.add(e)
    return frozenset(chosen)


def chamber_denominator(perm: Perm, point: Sequence[Fraction]) -> Fraction:
    """prod (t_perm(i) - t_perm(i+1)); zero means the point is degenerate."""
    value = Fraction(1)
    for a, b in zip(perm, perm[1:]):
        diff = point[a] - point[b]
        if diff == 0:
            raise DegeneratePoint(f"coordinates {a} and {b} collide")
        value *= diff
    return value


def generic_point(n_elements: int, seed: int) -> Point:
    """Distinct random rationals; distinctness keeps every denominator nonzero."""
    rng = random.Random(seed)
    while True:
        nums = [rng.randint(-10**6, 10**6) for _ in range(n_elements)]
        dens = [rng.randint(1, 999) for _ in range(n_elements)]
        pt = tuple(Fraction(a, b) for a, b in zip(nums, dens))
        if len(set(pt)) == n_elements:
            return pt


def _rank_table(m: Matroid) -> bytearray:
    """rank(S) at index S for every subset mask S, by transforms of the bases.

    A set is independent iff some basis contains it, an OR over supersets.
    Every rank is then one max over the subsets one element smaller: a
    dependent set has the rank of its best such subset, and an independent
    one has one more.
    """
    size = 1 << m.n_elements
    independent = bytearray(size)
    for basis in m.bases:
        independent[sum(1 << e for e in basis)] = 1
    for mask in range(size - 1, 0, -1):
        if independent[mask]:
            rest = mask
            while rest:
                low = rest & -rest
                independent[mask ^ low] = 1
                rest ^= low
    rank = bytearray(size)
    for mask in range(1, size):
        best = 0
        rest = mask
        while rest:
            low = rest & -rest
            if rank[mask ^ low] > best:
                best = rank[mask ^ low]
            rest ^= low
        rank[mask] = best + independent[mask]
    return rank


def _chamber_sum_mod(
    rank: bytearray, r: int, k: int, point: Sequence[int], p: int
) -> int:
    """The chamber sum of alpha^(r-k) beta^k times the matroid class, mod p.

    dp[S][b] sums, over the orders of S that end at b, the product of the
    beta factor (t_first - t_0)^k, the factors t_0 - t_e of the elements
    outside the greedy basis, and the inverted steps 1 / (t_a - t_b).  The
    alpha factor (t_0 - t_last)^(r-k) is applied once, at S = E.  This takes
    n^2 * 2^n multiply-adds and a table of 2^n * n residues.
    """
    n = len(point)
    to_ref = [(point[0] - point[b]) % p for b in range(n)]
    # steps_into[b][a] = 1 / (t_a - t_b); the diagonal entry meets a zero in dp
    steps_into = [
        [pow(point[a] - point[b], -1, p) if a != b else 0 for a in range(n)]
        for b in range(n)
    ]
    dp: list = [None] * (1 << n)
    for f in range(n):
        row = [0] * n
        row[f] = pow(point[f] - point[0], k, p)
        dp[1 << f] = row
    for mask in range(3, 1 << n):
        if not mask & (mask - 1):
            continue
        row = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            b = low.bit_length() - 1
            prefix = mask ^ low
            total = sum(map(mul, dp[prefix], steps_into[b]))
            if rank[prefix] == rank[mask]:
                total *= to_ref[b]
            row[b] = total % p
        dp[mask] = row
    return sum(v * pow(to_ref[b], r - k, p) for b, v in enumerate(dp[-1])) % p


def deg_pp(m: Matroid, k: int, seed: int = 0) -> int:
    """Degree of alpha^(r-k) beta^k against the matroid class, chamber-summed.

    The n! chamber sum is a dynamic program over prefix sets (see the module
    docstring): n^2 * 2^n steps on a table of 2^n * n residues.  It runs at
    two points drawn from `seed`, one modulo each prime, and the two
    readings in (-p/2, p/2) must agree.
    """
    r = m.degree_rank(k)
    n = m.n_elements
    rank = _rank_table(m)
    rng = random.Random(seed)
    readings = []
    for p in _PRIMES:
        residue = _chamber_sum_mod(rank, r, k, rng.sample(range(p), n), p)
        readings.append(residue - p if residue > p // 2 else residue)
    first, second = readings
    if first != second:
        raise AssertionError(
            f"chamber sum is not constant: {first} mod {_PRIMES[0]} vs "
            f"{second} mod {_PRIMES[1]} (it must be)"
        )
    return first
