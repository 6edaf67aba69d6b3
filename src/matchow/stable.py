"""Degree computation by stable intersection with displaced skeleton fans.

The matroid fan is intersected with a translate of the locus where the
r-k+1 smallest coordinates agree and a translate of the locus where the
k+1 largest coordinates agree.  Codimensions add up to the ambient
dimension, so for generic displacements the intersection is a finite set
of points; each contributes the index of the sum of the three span
lattices, and the total is the degree.

Candidate points are triples (complete flag, I, J).  A point of the flag
cone's span is constant on each of the flag's r+1 blocks, and x - a must be
constant on I and x - b on J.  Each member s of I ties its block's value
x_B(s) to a common level c_I by x_B(s) - c_I = a_s, and likewise for J with
b.  That is a difference system on the blocks and the two levels, solved by
a union-find over potentials: a cycle whose offsets do not add up gives no
point, and a system that leaves two components is singular.  Every
inequality must then hold strictly (the point sits in three relative
interiors); an exact tie means the displacement was non-generic, which
raises DegenerateSystem so the caller can redraw.  ``intersect_triple``
runs this one evaluator on any triple.

The enumeration passes it only the triples that can hit:

* Tree patterns.  The system has a unique solution iff its r+2 edges form a
  spanning tree of its r+3 nodes, that is iff I meets r-k+1 distinct
  blocks, J meets k+1 distinct blocks and the two block sets share exactly
  one block.  Two members of one group in one block need a_s = a_t (or
  b_u = b_v), which a strictly monotone displacement rules out.  Sharing
  two or more blocks closes a cycle through two of them, P and Q,
  consistent only if a_s - a_t = b_u - b_v for the members s, u in P and
  t, v in Q.
* Genericity.  So every skipped pattern is inconsistent as long as no
  difference a_s - a_t (s != t) equals a difference b_u - b_v (u != v).
  Each draw is checked for that once, and one that fails is redrawn, like
  a draw that produces a tie.
* Pruning, independent of the draw.  Inside a block the skeleton
  inequalities compare only a (or only b), so the member of I in a block is
  its smallest element (a decreases), and so is the member of J (b
  increases).  The point decreases strictly along the flag, so I's members
  must increase in element order along the flag and J's must decrease.

Block values are integer potentials: a and b are scaled by the lcm of
their denominators, a positive scale keeps every sign test, and points come
back as Fractions.  The span lattices of the skeleton loci are spanned by
indicator vectors, and the lattice index is computed on every hit.

The complete flags are the lattice's int-mask chains (bit e for element e),
in the order `FlatLattice.chains(1, r)` hands them out; no matroid fan is
built.  A pattern is (mask flag, block index of each element, I mask, J
mask).  The blocks and their least elements come off the mask bits, the
block index is built only for a flag that keeps a pattern, and frozensets
are built only for the IntersectionPoint of a hit.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DegenerateSystem, NotFullRank
from .exact import lattice_index
from .exact import solve_linear  # unused here; bench/spans.py wraps it in this namespace
from .fan import FlagCone, MaskFlag, _flag_view, chain_masks, full_coordinates, mask_blocks
from .fan import mask_image
from .fan import matroid_fan  # unused here; bench/spans.py wraps it in this namespace
from .matroid import Matroid, _members, _subset_mask

Subset = FrozenSet[int]
Vector = Tuple[Fraction, ...]
# (mask flag, block index of each element, I mask, J mask): one candidate triple.
Pattern = Tuple[MaskFlag, Tuple[int, ...], int, int]


def displacement_vectors(n_elements: int, seed: int) -> Tuple[Vector, Vector]:
    """A strictly decreasing and a strictly increasing generic direction.

    Full coordinates are drawn as random rationals and sorted; returned in
    quotient coordinates (element 0 pinned to zero).
    """
    rng = random.Random(seed)

    def draw(reverse: bool) -> Vector:
        while True:
            vals = [
                Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
                for _ in range(n_elements)
            ]
            if len(set(vals)) == n_elements:
                vals.sort(reverse=reverse)
                return tuple(v - vals[0] for v in vals[1:])

    return draw(True), draw(False)


def _check_monotone(n_elements: int, a: Vector, b: Vector) -> Tuple[Vector, Vector]:
    """Full coordinates of a and b, checked strictly decreasing and increasing."""
    fa, fb = full_coordinates(a), full_coordinates(b)
    if len(fa) != n_elements or len(fb) != n_elements:
        raise ValueError("displacement vectors have the wrong dimension")
    if any(x <= y for x, y in zip(fa, fa[1:])):
        raise ValueError("first displacement must be strictly decreasing")
    if any(x >= y for x, y in zip(fb, fb[1:])):
        raise ValueError("second displacement must be strictly increasing")
    return fa, fb


def _scaled(fa: Sequence, fb: Sequence) -> Tuple[List[int], List[int], int]:
    """Full coordinates of a and b times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(Fraction(x).denominator for x in (*fa, *fb)))
    ints = [[int(x * scale) for x in v] for v in (fa, fb)]
    return ints[0], ints[1], scale


def _coincident_difference(fa: Sequence[int], fb: Sequence[int]) -> bool:
    """Whether some a_s - a_t (s != t) equals some b_u - b_v (u != v).

    a decreases and b increases, so comparing the positive differences
    a_s - a_t and b_t - b_s over s < t covers every sign.
    """
    pairs = list(itertools.combinations(range(len(fa)), 2))
    gaps = {fa[s] - fa[t] for s, t in pairs}
    return any(fb[t] - fb[s] in gaps for s, t in pairs)


class IntersectionPoint(NamedTuple):
    """One transversal meeting point with its lattice multiplicity."""

    point: Vector
    flag: FlagCone
    smallest: Subset
    largest: Subset
    index: int


def _span_generators(n_elements: int, group: int) -> List[Tuple[int, ...]]:
    """Quotient images of e_g for each g outside the group, given as a mask.

    With e_group they span the integer vectors constant on the group, a
    direct summand of Z^E that holds the all-ones vector, so the image is
    saturated; e_group itself is minus their sum modulo the all-ones vector.
    """
    return [mask_image(n_elements, 1 << g) for g in range(n_elements) if not group >> g & 1]


def _potentials(n_nodes: int, edges: Sequence[Tuple[int, int, int]]) -> Optional[List[int]]:
    """Solve x[v] - x[u] = w for every edge (u, v, w), up to a common shift.

    A union-find keeps each node's offset from its root.  Returns None when
    some cycle is inconsistent, and raises DegenerateSystem when the edges
    leave more than one component, so the solution is not unique.
    """
    root = list(range(n_nodes))
    offset = [0] * n_nodes  # x[i] - x[root[i]]

    def find(i: int) -> Tuple[int, int]:
        d = 0
        while root[i] != i:
            d += offset[i]
            i = root[i]
        return i, d

    for u, v, w in edges:
        ru, du = find(u)
        rv, dv = find(v)
        if ru != rv:
            root[rv] = ru
            offset[rv] = du + w - dv
        elif dv - du != w:
            return None
    found = [find(i) for i in range(n_nodes)]
    if len({top for top, _ in found}) > 1:
        raise DegenerateSystem("membership system is singular; redraw displacements")
    return [d for _, d in found]


def _meet(
    flag: MaskFlag,
    block: Sequence[int],
    I: int,
    J: int,
    fa: Sequence[int],
    fb: Sequence[int],
    scale: int,
) -> Optional[IntersectionPoint]:
    """The evaluator behind intersect_triple and the enumeration.

    flag is a mask chain, I and J are masks, and block[e] is the index of
    e's block in the flag; fa and fb are the full displacements times
    scale > 0.  Nodes 0..r are the blocks, r+1 and r+2 the levels of I and J.
    """
    n_blocks = len(flag) + 1
    edges = [(n_blocks, block[s], fa[s]) for s in _members(I)]
    edges += [(n_blocks + 1, block[u], fb[u]) for u in _members(J)]
    x = _potentials(n_blocks + 2, edges)
    if x is None:
        return None
    values = [v - x[block[0]] for v in x[:n_blocks]]

    # Relative-interior checks; an exact tie is a boundary hit.
    for hi, lo in zip(values, values[1:]):
        if hi == lo:
            raise DegenerateSystem("intersection point on a flag wall")
        if hi < lo:
            return None
    full = [values[p] for p in block]
    for group, offsets, sense in ((I, fa, 1), (J, fb, -1)):
        least = (group & -group).bit_length() - 1
        level = full[least] - offsets[least]
        for e, (xe, oe) in enumerate(zip(full, offsets)):
            if group >> e & 1:
                continue
            gap = (xe - oe - level) * sense
            if gap == 0:
                raise DegenerateSystem("intersection point on a skeleton wall")
            if gap < 0:
                return None

    n_el = len(block)
    generators = [mask_image(n_el, s) for s in flag]
    generators += _span_generators(n_el, I) + _span_generators(n_el, J)
    try:
        index = lattice_index(generators, n_el - 1)
    except NotFullRank as exc:
        raise DegenerateSystem(f"span lattices do not fill the ambient space: {exc}")
    point = tuple(Fraction(v, scale) for v in full[1:])
    smallest, largest = frozenset(_members(I)), frozenset(_members(J))
    return IntersectionPoint(point, _flag_view(flag), smallest, largest, index)


def _element_blocks(n_elements: int, blocks: Sequence[int]) -> Tuple[int, ...]:
    """block[e], the index of the mask block that holds e."""
    block = [0] * n_elements
    for i, part in enumerate(blocks):
        for e in _members(part):
            block[e] = i
    return tuple(block)


def intersect_triple(
    flag: FlagCone,
    smallest: Sequence[int],
    largest: Sequence[int],
    a: Vector,
    b: Vector,
) -> Optional[IntersectionPoint]:
    """Meet of the flag cone, a + {smallest equal}, and b - {largest equal}.

    Returns the intersection point with its lattice index, or None when the
    three relative interiors do not meet.  Raises DegenerateSystem whenever
    the outcome is not an exact transversal point (tie or singular system).
    Raises ValueError unless every member of smallest and largest is in 0..n-1.
    """
    n_el = len(a) + 1
    I, J = _subset_mask(n_el, smallest), _subset_mask(n_el, largest)
    fa, fb, scale = _scaled(*_check_monotone(n_el, a, b))
    masks = chain_masks(n_el, flag)
    return _meet(masks, _element_blocks(n_el, mask_blocks(n_el, masks)), I, J, fa, fb, scale)


def _tree_patterns(n_elements: int, r: int, k: int, flags: Iterable[MaskFlag]) -> List[Pattern]:
    """Every triple that survives the draw-independent pruning, in enumeration order.

    Per flag: I takes the smallest element of each of r-k+1 blocks, with
    these increasing along the flag; J takes the smallest element of the
    other k blocks and of one of I's, with these decreasing along the flag.
    Flags keep their order, and within a flag the triples are sorted as
    itertools.combinations would list I and then J.  A block's least element
    is kept as its bit, which orders as the element does.
    """
    patterns: List[Pattern] = []
    for flag in flags:
        blocks = mask_blocks(n_elements, flag)
        lows = [part & -part for part in blocks]
        found = []
        for chosen in itertools.combinations(range(r + 1), r - k + 1):
            I = [lows[p] for p in chosen]
            if any(s >= t for s, t in zip(I, I[1:])):
                continue
            rest = [p for p in range(r + 1) if p not in chosen]
            for shared in chosen:
                J = [lows[p] for p in sorted((*rest, shared))]
                if all(u > v for u, v in zip(J, J[1:])):
                    found.append((tuple(I), tuple(reversed(J))))
        if found:
            found.sort()
            block = _element_blocks(n_elements, blocks)
            patterns += [(flag, block, sum(I), sum(J)) for I, J in found]
    return patterns


def stable_intersection_points(
    m: Matroid, k: int, seed: int = 0
) -> Tuple[List[IntersectionPoint], Tuple[Vector, Vector]]:
    """All meeting points for one generic displacement pair.

    A draw is redrawn when it fails the genericity check or hits a tie.
    """
    r = m.degree_rank(k)
    n_el = m.n_elements
    patterns = _tree_patterns(n_el, r, k, m.lattice().chains(1, r))
    for attempt in range(32):
        a, b = displacement_vectors(n_el, seed * 1000003 + attempt)
        fa, fb, scale = _scaled(*_check_monotone(n_el, a, b))
        if _coincident_difference(fa, fb):
            continue
        try:
            points = []
            for pattern in patterns:
                hit = _meet(*pattern, fa, fb, scale)
                if hit is not None:
                    points.append(hit)
            return points, (a, b)
        except DegenerateSystem:
            continue
    raise DegenerateSystem("no generic displacement pair found after 32 draws")


def deg_stable(m: Matroid, k: int, seed: int = 0) -> int:
    """Sum of lattice indices over the stable intersection points."""
    points, _ = stable_intersection_points(m, k, seed)
    return sum(p.index for p in points)
