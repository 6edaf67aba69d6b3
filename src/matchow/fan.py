"""Braid fan cones, weighted subfans, and the balancing condition.

Ambient space: R^E modulo the all-ones line, with E = {0..n}.  Points are
stored in quotient coordinates that pin the coordinate of element 0 to
zero, so a point is a tuple of length n over the elements 1..n and the
class of e_S maps to ([i in S] - [0 in S])_{i=1..n}.

Cones of the braid fan are stored combinatorially as flags of proper
nonempty subsets of E; the cone spanned by {e_S : S in flag} recovers the
geometry.  A weighted fan is a dict from same-dimension flags to nonzero
rational weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import LoopPresent, Unbalanced
from .exact import in_rational_span
from .matroid import Matroid

Subset = FrozenSet[int]
FlagCone = Tuple[Subset, ...]


def flag_key(flag: FlagCone):
    """Canonical sort key so iteration orders are deterministic."""
    return tuple(tuple(sorted(s)) for s in flag)


def e_image(n_elements: int, subset: Iterable[int]) -> Tuple[int, ...]:
    """Quotient coordinates of the indicator vector e_S."""
    s = frozenset(subset)
    base = 1 if 0 in s else 0
    return tuple((1 if i in s else 0) - base for i in range(1, n_elements))


def full_coordinates(point: Sequence) -> Tuple[Fraction, ...]:
    """The representative of a quotient point whose 0-coordinate is zero."""
    return (Fraction(0),) + tuple(Fraction(x) for x in point)


def validate_flag(n_elements: int, flag: FlagCone) -> None:
    full = frozenset(range(n_elements))
    prev: Optional[Subset] = None
    for s in flag:
        if not s or s == full or not s <= full:
            raise ValueError(f"flag member {sorted(s)} is not a proper nonempty subset")
        if prev is not None and not prev < s:
            raise ValueError("flag subsets must be strictly nested")
        prev = s


def level_prefixes(n_elements: int, point: Sequence) -> list[Tuple[Fraction, Subset]]:
    """The distinct full coordinates of a point in decreasing order, each
    paired with the set of elements whose coordinate is at least that value.

    The prefixes before the last (which is the whole ground set) form the
    flag of the smallest braid cone containing the point, and consecutive
    value gaps are the point's coefficients on those flag generators.
    """
    coords = full_coordinates(point)
    if len(coords) != n_elements:
        raise ValueError("point has the wrong dimension")
    levels: Dict[Fraction, set] = {}
    for e, value in enumerate(coords):
        levels.setdefault(value, set()).add(e)
    out = []
    prefix: set = set()
    for value in sorted(levels, reverse=True):
        prefix |= levels[value]
        out.append((value, frozenset(prefix)))
    return out


def braid_cone_of(n_elements: int, point: Sequence) -> FlagCone:
    """Flag of the smallest braid cone containing the point."""
    return tuple(prefix for _, prefix in level_prefixes(n_elements, point)[:-1])


class WeightedFan:
    """A pure-dimensional weighted subfan of the braid fan."""

    __slots__ = ("n_elements", "dim", "weights")

    def __init__(
        self,
        n_elements: int,
        dim: int,
        weights: Dict[FlagCone, Fraction],
    ):
        clean: Dict[FlagCone, Fraction] = {}
        for flag, w in weights.items():
            flag = tuple(frozenset(s) for s in flag)
            if len(flag) != dim:
                raise ValueError(f"cone {flag} has dimension {len(flag)}, expected {dim}")
            validate_flag(n_elements, flag)
            w = Fraction(w)
            if w != 0:
                clean[flag] = w
        self.n_elements = n_elements
        self.dim = dim
        self.weights = clean

    def cones(self) -> list[FlagCone]:
        return sorted(self.weights, key=flag_key)

    def weight(self, flag: FlagCone) -> Fraction:
        return self.weights.get(tuple(frozenset(s) for s in flag), Fraction(0))

    def reweighted(self, flag: FlagCone, w) -> "WeightedFan":
        """Copy with one cone's weight replaced (used to build counterexamples)."""
        weights = dict(self.weights)
        weights[tuple(frozenset(s) for s in flag)] = Fraction(w)
        return WeightedFan(self.n_elements, self.dim, weights)

    def __eq__(self, other):
        if not isinstance(other, WeightedFan):
            return NotImplemented
        return (
            self.n_elements == other.n_elements
            and self.dim == other.dim
            and self.weights == other.weights
        )

    def __repr__(self):
        return (
            f"WeightedFan(n={self.n_elements}, dim={self.dim}, "
            f"cones={len(self.weights)})"
        )


def matroid_fan(m: Matroid) -> WeightedFan:
    """Unit weights on the complete flags of proper nonempty flats."""
    if not m.is_loopless():
        raise LoopPresent("the flag fan of a matroid with loops is not defined here")
    lat = m.lattice()
    r = m.rank() - 1

    def grow(flag: FlagCone, last: Subset) -> Iterator[FlagCone]:
        if len(flag) == r:
            yield flag
            return
        for g in lat.covers_above(last):
            if g != lat.top:
                yield from grow(flag + (g,), g)

    flags = grow((), lat.bottom)
    return WeightedFan(m.n_elements, r, {f: Fraction(1) for f in flags})


def codim_one_stars(
    fan: WeightedFan,
) -> list[Tuple[FlagCone, list[Tuple[Subset, Fraction]]]]:
    """Every codimension-one face tau in canonical order, with the extra ray
    and weight of each cone of the fan that contains it."""
    stars: Dict[FlagCone, list] = {}
    for sigma, w in fan.weights.items():
        for i, extra in enumerate(sigma):
            stars.setdefault(sigma[:i] + sigma[i + 1 :], []).append((extra, w))
    return sorted(stars.items(), key=lambda star: flag_key(star[0]))


def balancing_certificate(fan: WeightedFan) -> Optional[FlagCone]:
    """First codimension-one cone where the weighted rays fail to balance.

    Around a face tau, the sum of w(sigma) * e_(extra ray of sigma) must lie
    in the linear span of tau; returns None when every face passes.
    """
    if fan.dim == 0:
        return None
    n = fan.n_elements
    for tau, star in codim_one_stars(fan):
        total = [Fraction(0)] * (n - 1)
        for extra, w in star:
            total = [t + w * v for t, v in zip(total, e_image(n, extra))]
        span = [e_image(n, s) for s in tau]
        if not in_rational_span(span, total):
            return tau
    return None


def is_balanced(fan: WeightedFan) -> Tuple[bool, Optional[FlagCone]]:
    cert = balancing_certificate(fan)
    return cert is None, cert


def require_balanced(fan: WeightedFan) -> None:
    cert = balancing_certificate(fan)
    if cert is not None:
        raise Unbalanced(cert)
