"""Tropical divisors of piecewise-linear functions on weighted braid subfans.

A piecewise-linear function is a table of values on the rays e_S, extended
to each braid cone by linearity in the flag generators (the evaluation
decomposes a point into its level groups with the same walk that
braid_cone_of uses).

The divisor of f on a balanced weight w assigns to each codimension-one
face tau the value sum_sigma f(w(sigma) e_(sigma/tau)) minus
f(sum_sigma w(sigma) e_(sigma/tau)); both f-arguments are honest points of
the ambient space and f is evaluated there as a genuine PL function.  The
second argument is also the vector the balancing condition tests, so the
divisor checks that w is balanced in the same walk over the faces.

Iterating the two tropical hyperplane classes walks the rank window of the
truncation weights down to a number: beta trims the window from below,
alpha from above, and the 0-dimensional leftovers are the reduced
characteristic polynomial coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, Mapping, Sequence

from .errors import LoopPresent, RangeError, Unbalanced
from .fan import (
    FlagCone,
    WeightedFan,
    codim_one_stars,
    e_image,
    flag_parts,
    in_rational_span,
    level_prefixes,
    matroid_fan,
    require_balanced,  # unused here; bench/spans.py wraps it in this namespace
)
from .matroid import Matroid

Subset = FrozenSet[int]


class PLFunction:
    """Piecewise-linear function on the braid fan, given by its ray values."""

    __slots__ = ("n_elements", "ray_values")

    def __init__(self, n_elements: int, ray_values: Mapping[Subset, Fraction]):
        table: Dict[Subset, Fraction] = {}
        for s, v in ray_values.items():
            s = frozenset(s)
            flag_parts(n_elements, (s,))  # a ray is a one-member flag
            table[s] = Fraction(v)
        self.n_elements = n_elements
        self.ray_values = table

    def __call__(self, point: Sequence) -> Fraction:
        """Courant evaluation: decompose into level groups, combine ray values."""
        levels = level_prefixes(self.n_elements, point)
        total = Fraction(0)
        for (value, prefix), (nxt, _) in zip(levels, levels[1:]):
            total += (value - nxt) * self.ray_values[prefix]
        return total

    def __repr__(self):
        return f"PLFunction(n={self.n_elements}, rays={len(self.ray_values)})"


def _all_proper_subsets(n_elements: int) -> Iterator[Subset]:
    ground = range(n_elements)
    for size in range(1, n_elements):
        for s in itertools.combinations(ground, size):
            yield frozenset(s)


def pl_alpha(n_elements: int) -> PLFunction:
    """Value 1 exactly on the rays whose subset contains the reference 0."""
    return PLFunction(
        n_elements,
        {s: Fraction(1 if 0 in s else 0) for s in _all_proper_subsets(n_elements)},
    )


def pl_beta(n_elements: int) -> PLFunction:
    """Value 1 exactly on the rays whose subset avoids the reference 0."""
    return PLFunction(
        n_elements,
        {s: Fraction(0 if 0 in s else 1) for s in _all_proper_subsets(n_elements)},
    )


def pl_linear(n_elements: int, coeffs: Mapping[int, int]) -> PLFunction:
    """Ray table of a globally linear sum c_e t_e (coefficients must sum to 0)."""
    full = {e: Fraction(coeffs.get(e, 0)) for e in range(n_elements)}
    if sum(full.values()) != 0:
        raise ValueError("a linear function on the quotient needs coefficient sum 0")
    return PLFunction(
        n_elements,
        {
            s: sum((full[e] for e in s), Fraction(0))
            for s in _all_proper_subsets(n_elements)
        },
    )


def divisor(f: PLFunction, w: WeightedFan) -> WeightedFan:
    """Weight on each codimension-one face measuring the failure of f to be linear.

    Raises Unbalanced at the first face, in canonical order, where w does not balance."""
    if f.n_elements != w.n_elements:
        raise ValueError("ground set mismatch")
    if w.dim == 0:
        raise ValueError("cannot take the divisor of a 0-dimensional weight")
    n = w.n_elements
    out: Dict[FlagCone, Fraction] = {}
    for tau, star, combined in codim_one_stars(w):
        if not in_rational_span(tau, combined):
            raise Unbalanced(tau)
        linear_part = Fraction(0)
        for extra, weight in star:
            linear_part += f([weight * x for x in e_image(n, extra)])
        value = linear_part - f(combined)
        if value != 0:
            out[tau] = value
    return WeightedFan(n, w.dim - 1, out)


def truncation_weight(m: Matroid, r1: int, r2: int) -> WeightedFan:
    """Flags of flats of consecutive ranks r1..r2, weighted |mobius(bottom flat)|.

    Balance is not checked here; `divisor` and `is_balanced` check it."""
    if not m.is_loopless():
        raise LoopPresent("truncation weights need a loopless matroid")
    r = m.rank() - 1
    if not (1 <= r1 <= r2 <= r):
        raise RangeError(f"rank window [{r1}, {r2}] outside 1 <= r1 <= r2 <= {r}")
    lat = m.lattice()
    weights = {
        flag: Fraction(abs(lat.mobius[flag[0]])) for flag in lat.chains(r1, r2)
    }
    return WeightedFan(m.n_elements, r2 - r1 + 1, weights)


def deg_tropical(m: Matroid, k: int) -> int:
    """Apply beta k times then alpha r-k times to the matroid fan; read the origin."""
    r = m.degree_rank(k)
    w = matroid_fan(m)
    beta = pl_beta(m.n_elements)
    alpha = pl_alpha(m.n_elements)
    for _ in range(k):
        w = divisor(beta, w)
    for _ in range(r - k):
        w = divisor(alpha, w)
    value = w.weights.get((), Fraction(0))
    if value.denominator != 1:
        raise AssertionError(f"degree came out non-integral: {value}")
    return int(value)
