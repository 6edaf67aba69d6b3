"""Braid fan cones, weighted subfans, and the balancing condition.

Ambient space: R^E modulo the all-ones line, with E = {0..n}.  Points are
stored in quotient coordinates that pin the coordinate of element 0 to
zero, so a point is a tuple of length n over the elements 1..n and the
class of e_S maps to ([i in S] - [0 in S])_{i=1..n}.

Cones of the braid fan are stored combinatorially as flags of proper
nonempty subsets of E; the cone spanned by {e_S : S in flag} recovers the
geometry.  A weighted fan is a dict from same-dimension flags to nonzero
weights, stored as given: the matroid fan and every tropical divisor of it
carry ints.  Balancing is tested by blocks, not by a linear solve: a
point lies in the span of a flag's rays iff its full coordinates are
constant on each block S_1, S_2 - S_1, ..., E - S_d of the flag.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import LoopPresent, RangeError, Unbalanced
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


def full_coordinates(point: Sequence) -> tuple:
    """The representative of a quotient point whose 0-coordinate is zero."""
    return (0, *point)


def flag_parts(n_elements: int, flag: FlagCone) -> List[Subset]:
    """The blocks S_1, S_2 - S_1, ..., E - S_d of a flag of subsets of E;
    raises ValueError unless the flag strictly nests proper nonempty subsets."""
    parts = []
    prev: Subset = frozenset()
    for s in (*flag, frozenset(range(n_elements))):
        if not prev < s:
            flag_text = [sorted(t) for t in flag]
            raise ValueError(f"flag {flag_text} is not a strict chain of proper nonempty subsets")
        parts.append(s - prev)
        prev = s
    return parts


def braid_cone_of(n_elements: int, point: Sequence) -> FlagCone:
    """Flag of the smallest braid cone containing the point: for each distinct
    full coordinate but the smallest, in decreasing order, the set of
    elements whose coordinate is at least that value."""
    coords = full_coordinates(point)
    if len(coords) != n_elements:
        raise ValueError("point has the wrong dimension")
    levels: Dict[object, set] = {}
    for e, value in enumerate(coords):
        levels.setdefault(value, set()).add(e)
    flag = []
    prefix: Subset = frozenset()
    for value in sorted(levels, reverse=True)[:-1]:
        prefix |= levels[value]
        flag.append(prefix)
    return tuple(flag)


class WeightedFan:
    """A pure-dimensional weighted subfan of the braid fan."""

    __slots__ = ("n_elements", "dim", "weights")

    def __init__(
        self,
        n_elements: int,
        dim: int,
        weights: Dict[FlagCone, int],
    ):
        clean: Dict[FlagCone, int] = {}
        for flag, w in weights.items():
            flag = tuple(frozenset(s) for s in flag)
            if len(flag) != dim:
                raise ValueError(f"cone {flag} has dimension {len(flag)}, expected {dim}")
            flag_parts(n_elements, flag)
            if w != 0:
                clean[flag] = w
        self.n_elements = n_elements
        self.dim = dim
        self.weights = clean

    def cones(self) -> list[FlagCone]:
        return sorted(self.weights, key=flag_key)

    def weight(self, flag: FlagCone) -> int:
        return self.weights.get(tuple(frozenset(s) for s in flag), 0)

    def reweighted(self, flag: FlagCone, w) -> "WeightedFan":
        """Copy with one cone's weight replaced (used to build counterexamples)."""
        weights = dict(self.weights)
        weights[tuple(frozenset(s) for s in flag)] = w
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
    r = m.rank() - 1
    if r < 0:
        raise RangeError("a rank-0 matroid has no matroid fan (its dimension would be -1)")
    flags = m.lattice().chains(1, r)
    return WeightedFan(m.n_elements, r, {f: 1 for f in flags})


def _block_values(flag: FlagCone, point: Sequence) -> Optional[List]:
    """The value of the point's full coordinates on each block of the flag,
    in order, or None when they are not constant on some block."""
    coords = full_coordinates(point)
    blocks = [{coords[e] for e in block} for block in flag_parts(len(coords), flag)]
    if any(len(values) != 1 for values in blocks):
        return None
    return [values.pop() for values in blocks]


def in_rational_span(flag: FlagCone, point: Sequence) -> bool:
    """Whether a quotient point lies in the linear span of the flag's rays.

    With the all-ones line, the e_S for S in the flag span exactly the
    vectors that are constant on each block of the flag.
    """
    return _block_values(flag, point) is not None


def codim_one_stars(
    fan: WeightedFan,
) -> list[Tuple[FlagCone, list[Tuple[Subset, int]], Tuple[int, ...]]]:
    """Every codimension-one face tau in canonical order, with the extra ray
    and weight of each cone of the fan that contains it, and the weighted
    sum of those extra rays in quotient coordinates."""
    n = fan.n_elements
    stars: Dict[FlagCone, list] = {}
    for sigma, w in fan.weights.items():
        for i, extra in enumerate(sigma):
            stars.setdefault(sigma[:i] + sigma[i + 1 :], []).append((extra, w))
    out = []
    for tau in sorted(stars, key=flag_key):
        # Full coordinates of the sum of w * e_S add w to each member of S;
        # pinning element 0 to zero turns them into quotient coordinates.
        full = [0] * n
        for extra, w in stars[tau]:
            for e in extra:
                full[e] += w
        out.append((tau, stars[tau], tuple(x - full[0] for x in full[1:])))
    return out


def balancing_certificate(fan: WeightedFan) -> Optional[FlagCone]:
    """First codimension-one face, in canonical order, whose weighted sum of
    extra rays leaves its span; None when the fan is balanced."""
    for tau, _, total in codim_one_stars(fan):
        if not in_rational_span(tau, total):
            return tau
    return None


def is_balanced(fan: WeightedFan) -> Tuple[bool, Optional[FlagCone]]:
    cert = balancing_certificate(fan)
    return cert is None, cert


def require_balanced(fan: WeightedFan) -> None:
    cert = balancing_certificate(fan)
    if cert is not None:
        raise Unbalanced(cert)
