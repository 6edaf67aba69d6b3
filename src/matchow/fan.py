"""Braid fan cones, weighted subfans, and the balancing condition.

Ambient space: R^E modulo the all-ones line, with E = {0..n}.  Points are
stored in quotient coordinates that pin the coordinate of element 0 to
zero, so a point is a tuple of length n over the elements 1..n and the
class of e_S maps to ([i in S] - [0 in S])_{i=1..n}.

Cones of the braid fan are flags of proper nonempty subsets of E; the cone
spanned by {e_S : S in flag} recovers the geometry.  Inside this module,
`tropical` and `stable` a subset is an int mask with bit e set for element
e, and a flag is a tuple of masks: a weighted fan's `weights` is a dict
from same-dimension mask flags to nonzero weights (ints on the matroid fan
and its divisors).  The lattice of flats holds its flats as the same masks,
so the matroid fan and the truncation windows key their weights by its
chains as they come, and stable walks those chains itself.  The rule that a
flag strictly nests proper nonempty subsets is written once, in `_checked`:
the fan constructors run it on every flag, and `chain_masks` runs it on one
caller's flag for `flag_parts` and `stable.intersect_triple`.  Frozensets
appear only at the public edge: `WeightedFan.cones`, `weight` and
`reweighted`, the balancing certificate, `flag_parts`, `in_rational_span`
and `e_image`.

Balancing is tested by gaps, not by a linear solve.  A point lies in the
span of a flag tau = (F_1 < ... < F_d) iff its full coordinates are
constant on each block F_i - F_(i-1), with F_0 empty and F_(d+1) = E.  A
cone over tau adds one extra ray S, and S lies in one gap i of tau:
F_(i-1) < S < F_i.  Then w * e_S adds w to every block below i, nothing
above i, and is not constant only on block i.  So the weighted sum of the
extra rays is constant on block j iff the extras in gap j alone are, say
with value own_j, and its block values are c_j = own_j + sum_(i>j) W_i,
where W_i is the total weight in gap i.  The walk over the faces records
each extra with its gap, so it needs no point and no sort; faces are put
in the canonical order of `flag_key` only once one has failed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import LoopPresent, RangeError, Unbalanced
from .matroid import Matroid, _members, _subset_mask

Subset = FrozenSet[int]
FlagCone = Tuple[Subset, ...]
MaskFlag = Tuple[int, ...]


def flag_key(flag: FlagCone):
    """Canonical sort key so iteration orders are deterministic."""
    return tuple(tuple(sorted(s)) for s in flag)


def _flag_masks(n_elements: int, flag: Iterable[Iterable[int]]) -> MaskFlag:
    return tuple(_subset_mask(n_elements, s) for s in flag)


def _flag_view(flag: MaskFlag) -> FlagCone:
    return tuple(frozenset(_members(s)) for s in flag)


def e_image(n_elements: int, subset: Iterable[int]) -> Tuple[int, ...]:
    """Quotient coordinates of the indicator vector e_S; raises ValueError
    unless every member of S is an int in 0..n-1."""
    return mask_image(n_elements, _subset_mask(n_elements, subset))


def mask_image(n_elements: int, mask: int) -> Tuple[int, ...]:
    """Quotient coordinates of e_S for S given as a mask."""
    base = mask & 1
    return tuple((mask >> i & 1) - base for i in range(1, n_elements))


def full_coordinates(point: Sequence) -> tuple:
    """The representative of a quotient point whose 0-coordinate is zero."""
    return (0, *point)


def chain_masks(n_elements: int, flag: Iterable[Iterable[int]]) -> MaskFlag:
    """The mask flag of a flag of subsets of E; raises ValueError unless it
    strictly nests proper nonempty subsets (the test of `_checked`)."""
    masks = _flag_masks(n_elements, flag)
    _checked(n_elements, len(masks), {masks: 1})
    return masks


def mask_blocks(n_elements: int, flag: MaskFlag) -> List[int]:
    """The blocks F_1, F_2 - F_1, ..., E - F_d of a mask chain, as masks."""
    bounds = (0, *flag, (1 << n_elements) - 1)
    return [hi ^ lo for lo, hi in zip(bounds, bounds[1:])]


def flag_parts(n_elements: int, flag: FlagCone) -> List[Subset]:
    """The blocks of a flag of subsets of E as frozensets; raises ValueError
    unless the flag strictly nests proper nonempty subsets."""
    blocks = mask_blocks(n_elements, chain_masks(n_elements, flag))
    return [frozenset(_members(b)) for b in blocks]


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


def _checked(n_elements: int, dim: int, weights: Mapping[MaskFlag, int]) -> Dict[MaskFlag, int]:
    """The nonzero weights, once every flag is a strict chain of `dim`
    proper nonempty masks: one prev & ~s test per member."""
    full = (1 << n_elements) - 1
    clean: Dict[MaskFlag, int] = {}
    for flag, w in weights.items():
        if len(flag) != dim:
            raise ValueError(f"cone {_flag_view(flag)} has dimension {len(flag)}, expected {dim}")
        prev = 0
        for s in (*flag, full):
            if prev & ~s or prev == s:
                flag_text = [list(_members(t)) for t in flag]
                raise ValueError(
                    f"flag {flag_text} is not a strict chain of proper nonempty subsets"
                )
            prev = s
        if w != 0:
            clean[flag] = w
    return clean


class WeightedFan:
    """A pure-dimensional weighted subfan of the braid fan.

    The constructor takes flags of subsets of E; `weights` holds them as
    mask flags (see the module docstring)."""

    __slots__ = ("n_elements", "dim", "weights")

    def __init__(
        self,
        n_elements: int,
        dim: int,
        weights: Mapping[Sequence[Iterable[int]], int],
    ):
        masks = {_flag_masks(n_elements, flag): w for flag, w in weights.items()}
        self.n_elements = n_elements
        self.dim = dim
        self.weights = _checked(n_elements, dim, masks)

    @classmethod
    def _from_masks(cls, n_elements: int, dim: int, weights: Mapping[MaskFlag, int]):
        fan = cls.__new__(cls)
        fan.n_elements = n_elements
        fan.dim = dim
        fan.weights = _checked(n_elements, dim, weights)
        return fan

    def cones(self) -> list[FlagCone]:
        """The cones as flags of frozensets, in the canonical order of `flag_key`."""
        members = {s: _members(s) for s in {s for flag in self.weights for s in flag}}
        views = {s: frozenset(elements) for s, elements in members.items()}
        order = sorted(self.weights, key=lambda flag: tuple(map(members.__getitem__, flag)))
        return [tuple(map(views.__getitem__, flag)) for flag in order]

    def weight(self, flag: FlagCone) -> int:
        return self.weights.get(_flag_masks(self.n_elements, flag), 0)

    def reweighted(self, flag: FlagCone, w) -> "WeightedFan":
        """Copy with one cone's weight replaced (used to build counterexamples)."""
        weights = dict(self.weights)
        weights[_flag_masks(self.n_elements, flag)] = w
        return WeightedFan._from_masks(self.n_elements, self.dim, weights)

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
    flags = dict.fromkeys(m.lattice().chains(1, r), 1)
    return WeightedFan._from_masks(m.n_elements, r, flags)


def in_rational_span(flag: FlagCone, point: Sequence) -> bool:
    """Whether a quotient point lies in the linear span of the flag's rays.

    With the all-ones line, the e_S for S in the flag span exactly the
    vectors that are constant on each block of the flag.
    """
    coords = full_coordinates(point)
    return all(
        len({coords[e] for e in block}) == 1 for block in flag_parts(len(coords), flag)
    )


def face_stars(fan: WeightedFan) -> Dict[Tuple[MaskFlag, int], List[Tuple[int, int]]]:
    """Every codimension-one face tau of the fan, keyed with each occupied
    gap i of tau, holding the extra ray and weight of each cone over tau
    whose extra lies in that gap.  Dropping member i (from 0) of a cone
    leaves tau with the extra between tau[i-1] and tau[i]: that is gap i."""
    stars: Dict[Tuple[MaskFlag, int], List[Tuple[int, int]]] = {}
    for sigma, w in fan.weights.items():
        for i, extra in enumerate(sigma):
            key = (sigma[:i] + sigma[i + 1 :], i)
            extras = stars.get(key)
            if extras is None:
                stars[key] = [(extra, w)]
            else:
                extras.append((extra, w))
    return stars


def gap_bounds(n_elements: int, tau: MaskFlag, gap: int) -> Tuple[int, int]:
    """The masks tau[i-1] < tau[i] around gap i of tau, with the empty set
    below the first member and E above the last."""
    lo = tau[gap - 1] if gap else 0
    hi = tau[gap] if gap < len(tau) else (1 << n_elements) - 1
    return lo, hi


def gap_value(lo: int, hi: int, extras: List[Tuple[int, int]]) -> Optional[int]:
    """The constant value (own, in the module docstring) of sum w * [e in S]
    over e in the block hi - lo, for the (S, w) of one gap, or None when it
    is not constant.  Every S holds lo and lies in hi, so S - lo is all that
    S adds to the block."""
    block = hi ^ lo
    value = extras[0][1]
    covered = 0
    for s, w in extras:
        part = s ^ lo
        if covered & part or w != value:
            break
        covered |= part
    else:
        # disjoint parts of one weight: constant iff they cover the block
        return value if covered == block else None
    value = None
    rest = block
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = sum(w for s, w in extras if s & bit)
        if value is None:
            value = v
        elif v != value:
            return None
    return value


def first_face(faces: Iterable[MaskFlag]) -> FlagCone:
    """The first of some faces in the canonical order of `flag_key`."""
    return min((_flag_view(tau) for tau in faces), key=flag_key)


def balancing_certificate(fan: WeightedFan) -> Optional[FlagCone]:
    """First codimension-one face, in canonical order, whose weighted sum of
    extra rays leaves its span; None when the fan is balanced."""
    n = fan.n_elements
    failed = {
        tau
        for (tau, gap), extras in face_stars(fan).items()
        if gap_value(*gap_bounds(n, tau, gap), extras) is None
    }
    return first_face(failed) if failed else None


def is_balanced(fan: WeightedFan) -> Tuple[bool, Optional[FlagCone]]:
    cert = balancing_certificate(fan)
    return cert is None, cert


def require_balanced(fan: WeightedFan) -> None:
    cert = balancing_certificate(fan)
    if cert is not None:
        raise Unbalanced(cert)
