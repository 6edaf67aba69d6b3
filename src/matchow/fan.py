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
chains as they come, and stable walks those chains itself.  Both exist
only on a loopless matroid of rank >= 1, and both take that guard from
`Matroid.degree_rank`.  The rule that a flag strictly nests proper
nonempty subsets is written once, in `_checked`: the fan constructors run
it on every flag, and `chain_masks` runs it on one caller's flag for
`flag_parts` and `stable.intersect_triple`.  Frozensets
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
where W_i is the total weight in gap i.  The walk over the faces,
`face_stars`, goes one gap at a time: gap i collects the faces that drop
member i of a cone, each with its extras, so it needs no point and no sort,
and only one gap's stars are alive at once.  Faces are put in the
canonical order of `flag_key` only once one has failed.
`is_balanced` is the one balancing check and returns that first failed
face as its certificate; `require_balanced` raises `Unbalanced` on it, and
`tropical.divisor` runs the same gap test in its own walk over the faces.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, NoReturn, Optional, Sequence, Tuple
)

from .errors import Unbalanced
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


def _require_exact(value, what: str) -> None:
    # type() rather than isinstance(): True is no weight, and a float is inexact
    if type(value) not in (int, Fraction):
        raise ValueError(f"{what} {value!r} is not an int or a Fraction")


def _not_a_chain(flag: MaskFlag) -> NoReturn:
    flag_text = [list(_members(t)) for t in flag]
    raise ValueError(f"flag {flag_text} is not a strict chain of proper nonempty subsets")


def _checked(n_elements: int, dim: int, weights: Mapping[MaskFlag, int]) -> Dict[MaskFlag, int]:
    """The nonzero weights, once every flag is a strict chain of `dim`
    proper nonempty masks: one prev & ~s test per member, then the last
    member against the full set."""
    full = (1 << n_elements) - 1
    clean: Dict[MaskFlag, int] = {}
    for flag, w in weights.items():
        if len(flag) != dim:
            raise ValueError(f"cone {_flag_view(flag)} has dimension {len(flag)}, expected {dim}")
        prev = 0
        for s in flag:
            if prev & ~s or prev == s:
                _not_a_chain(flag)
            prev = s
        if prev & ~full or prev == full:
            _not_a_chain(flag)
        if w != 0:
            clean[flag] = w
    return clean


class WeightedFan:
    """A pure-dimensional weighted subfan of the braid fan.

    The constructor takes non-negative int sizes, flags of subsets of E and
    int or Fraction weights, and raises ValueError on any other size or
    weight; `weights` holds the flags as mask flags (see the module
    docstring)."""

    __slots__ = ("n_elements", "dim", "weights")

    def __init__(
        self,
        n_elements: int,
        dim: int,
        weights: Mapping[Sequence[Iterable[int]], int],
    ):
        for what, size in (("n_elements", n_elements), ("dim", dim)):
            # type() rather than isinstance(), as for k and the rank windows
            if type(size) is not int or size < 0:
                raise ValueError(f"{what} {size!r} is not a non-negative int")
        for w in weights.values():
            _require_exact(w, "weight")
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
        _require_exact(w, "weight")
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
    """Unit weights on the complete flags of proper nonempty flats, behind
    the guard `Matroid.degree_rank`."""
    r = m.degree_rank(0)
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


def face_stars(fan: WeightedFan) -> Iterator[Tuple[int, Dict[MaskFlag, List[Tuple[int, int]]]]]:
    """For each gap i from 0 to dim - 1 in turn, the codimension-one faces
    tau that drop member i (from 0) of a cone, each with the extra ray and
    weight of every such cone: the extra lies between tau[i-1] and tau[i],
    in gap i of tau.  Each gap's stars are built when the walk reaches it,
    so a caller that drops them before the next holds one gap's at a time."""
    for i in range(fan.dim):
        rest = [j for j in range(fan.dim) if j != i]
        # itemgetter of one index gives a bare mask, so short faces slice
        face = itemgetter(*rest) if len(rest) > 1 else lambda sigma: sigma[:i] + sigma[i + 1 :]
        stars: Dict[MaskFlag, List[Tuple[int, int]]] = {}
        for sigma, w in fan.weights.items():
            stars.setdefault(face(sigma), []).append((sigma[i], w))
        yield i, stars


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


def is_balanced(fan: WeightedFan) -> Tuple[bool, Optional[FlagCone]]:
    """(True, None) for a balanced fan; otherwise (False, the first
    codimension-one face, in canonical order, whose weighted sum of extra
    rays leaves its span)."""
    full = (1 << fan.n_elements) - 1
    top = fan.dim - 1
    failed = set()
    for gap, stars in face_stars(fan):
        for tau, extras in stars.items():
            # gap i of tau lies between tau[i-1] and tau[i], or 0 and E at the ends
            lo = tau[gap - 1] if gap else 0
            hi = tau[gap] if gap < top else full
            if gap_value(lo, hi, extras) is None:
                failed.add(tau)
        del stars  # one gap's stars alive at a time
    return (False, first_face(failed)) if failed else (True, None)


def require_balanced(fan: WeightedFan) -> None:
    ok, cert = is_balanced(fan)
    if not ok:
        raise Unbalanced(cert)
