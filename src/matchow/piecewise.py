"""Degree computation via piecewise polynomials on the permutation chambers.

A class is represented by one polynomial per full-dimensional chamber of
the braid fan (chambers are indexed by permutations of the ground set).
The degree of a top-degree product is the chamber sum of
f_sigma / prod_i (t_sigma(i) - t_sigma(i+1)), which is a constant rational
function; it is evaluated exactly at two independently drawn generic
points and the agreeing value is returned.

Representatives use the fixed reference element 0: the hyperplane class is
t_0 - t_last, the complementary class is t_first - t_0, and the matroid
class on a chamber is the product of t_0 - t_i over the elements outside
the greedy basis of that chamber's order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import DegeneratePoint
from .exact import MultiPoly
from .matroid import Matroid

Perm = Tuple[int, ...]
Point = Tuple[Fraction, ...]


def chambers(n_elements: int) -> list[Perm]:
    return list(itertools.permutations(range(n_elements)))


def greedy_basis(m: Matroid, order: Sequence[int]) -> frozenset:
    """First basis in the greedy scan of the given element order."""
    chosen: set = set()
    for e in order:
        if m.rank(chosen | {e}) > len(chosen):
            chosen.add(e)
    return frozenset(chosen)


class FacetPolynomial:
    """One exact polynomial per permutation chamber of the braid fan."""

    __slots__ = ("parts",)

    def __init__(self, parts: Dict[Perm, MultiPoly]):
        self.parts = parts


def _variable_difference(n_elements: int, i: int, j: int) -> MultiPoly:
    """t_i - t_j; the zero polynomial when i == j."""
    return MultiPoly.variable(n_elements, i) - MultiPoly.variable(n_elements, j)


def rep_alpha(n_elements: int, f: int = 0) -> FacetPolynomial:
    """Chamber-wise t_f - t_(last of the chamber order)."""
    return FacetPolynomial(
        {c: _variable_difference(n_elements, f, c[-1]) for c in chambers(n_elements)}
    )


def rep_beta(n_elements: int, f: int = 0) -> FacetPolynomial:
    """Chamber-wise t_(first of the chamber order) - t_f."""
    return FacetPolynomial(
        {c: _variable_difference(n_elements, c[0], f) for c in chambers(n_elements)}
    )


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


def deg_pp(m: Matroid, k: int, seed: int = 0) -> int:
    """Degree of alpha^(r-k) beta^k against the matroid class, chamber-summed.

    The product polynomial is evaluated factor-wise per chamber (evaluation
    is a ring map, so this equals evaluating the expanded product), at two
    generic points whose values must agree and be an integer.
    """
    r = m.degree_rank(k)
    n = m.n_elements
    perms = chambers(n)
    greedy = {c: greedy_basis(m, c) for c in perms}
    outside = {c: sorted(set(range(n)) - greedy[c]) for c in perms}

    def chamber_sum(point: Point) -> Fraction:
        total = Fraction(0)
        for c in perms:
            num = (point[0] - point[c[-1]]) ** (r - k) * (point[c[0]] - point[0]) ** k
            for i in outside[c]:
                num *= point[0] - point[i]
            total += num / chamber_denominator(c, point)
        return total

    attempt = 0
    while True:
        try:
            pt1 = generic_point(n, seed * 1000003 + attempt)
            pt2 = generic_point(n, seed * 1000003 + attempt + 500009)
            if pt1 == pt2:
                attempt += 1
                continue
            first = chamber_sum(pt1)
            second = chamber_sum(pt2)
            break
        except DegeneratePoint:
            attempt += 1
            if attempt > 32:
                raise
    if first != second:
        raise AssertionError(
            f"chamber sum is not constant: {first} vs {second} (it must be)"
        )
    if first.denominator != 1:
        raise AssertionError(f"degree came out non-integral: {first}")
    return int(first)
