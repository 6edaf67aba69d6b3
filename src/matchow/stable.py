"""Degree computation by stable intersection with displaced skeleton fans.

The matroid fan is intersected with a translate of the locus where the
r-k+1 smallest coordinates agree and a translate of the locus where the
k+1 largest coordinates agree.  Codimensions add up to the ambient
dimension, so for generic displacements the intersection is a finite set
of points; each contributes the index of the sum of the three span
lattices, and the total is the degree.

Candidate points are enumerated over triples (complete flag, I, J).  A
point of the flag cone's span is constant on each block of the flag, so it
is found by an exact linear solve with one unknown per block, the block of
element 0 pinned to zero: each consecutive pair s < t of I gives the row
v(block of s) - v(block of t) = a_s - a_t, and likewise for J with b.  The
span lattices of the skeleton loci are spanned by indicator vectors.  Every
inequality must hold strictly (the point sits in three relative
interiors); an exact tie means the displacement was non-generic, which
raises DegenerateSystem so the caller can redraw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import DegenerateSystem, NotFullRank
from .exact import lattice_index, solve_linear
from .fan import FlagCone, e_image, flag_parts, full_coordinates, matroid_fan
from .matroid import Matroid

Subset = FrozenSet[int]
Vector = Tuple[Fraction, ...]


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


@dataclass(frozen=True)
class IntersectionPoint:
    """One transversal meeting point with its lattice multiplicity."""

    point: Vector
    flag: FlagCone
    smallest: Subset
    largest: Subset
    index: int


def _span_generators(n_elements: int, group: Subset) -> List[Tuple[int, ...]]:
    """Quotient images of e_g for each g outside the group.

    With e_group they span the integer vectors constant on the group, a
    direct summand of Z^E that holds the all-ones vector, so the image is
    saturated; e_group itself is minus their sum modulo the all-ones vector.
    """
    return [e_image(n_elements, {g}) for g in range(n_elements) if g not in group]


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
    """
    n_el = len(a) + 1
    fa, fb = _check_monotone(n_el, a, b)
    I = frozenset(smallest)
    J = frozenset(largest)
    parts = flag_parts(n_el, flag)
    block = {e: i for i, part in enumerate(parts) for e in part}

    # Two members of one group in one block, or two shared by I and J, give
    # an inconsistent row, because a and b are strictly monotone.
    rows: List[List[int]] = []
    rhs: List[Fraction] = []
    for group, offsets in ((I, fa), (J, fb)):
        ordered = sorted(group)
        for s, t in zip(ordered, ordered[1:]):
            row = [0] * len(parts)  # element 0's block is pinned to 0: no column
            row[block[s]] += 1
            row[block[t]] -= 1
            del row[block[0]]
            rows.append(row)
            rhs.append(offsets[s] - offsets[t])

    status, solution = solve_linear(rows, rhs)
    if status == "inconsistent":
        return None
    if status == "underdetermined":
        raise DegenerateSystem("membership system is singular; redraw displacements")
    assert solution is not None
    values = list(solution)
    values.insert(block[0], Fraction(0))
    full = [values[block[e]] for e in range(n_el)]

    # Relative-interior checks; an exact tie is a boundary hit.
    for hi, lo in zip(values, values[1:]):
        if hi == lo:
            raise DegenerateSystem("intersection point on a flag wall")
        if hi < lo:
            return None
    for group, offsets, sense in ((I, fa, 1), (J, fb, -1)):
        shifted = [x - o for x, o in zip(full, offsets)]
        level = shifted[min(group)]
        for e in range(n_el):
            if e in group:
                continue
            gap = (shifted[e] - level) * sense
            if gap == 0:
                raise DegenerateSystem("intersection point on a skeleton wall")
            if gap < 0:
                return None

    generators = [e_image(n_el, s) for s in flag]
    generators += _span_generators(n_el, I) + _span_generators(n_el, J)
    try:
        index = lattice_index(generators, n_el - 1)
    except NotFullRank as exc:
        raise DegenerateSystem(f"span lattices do not fill the ambient space: {exc}")
    return IntersectionPoint(tuple(full[1:]), flag, I, J, index)


def stable_intersection_points(
    m: Matroid, k: int, seed: int = 0
) -> Tuple[List[IntersectionPoint], Tuple[Vector, Vector]]:
    """All meeting points for one generic displacement pair, redrawing on ties."""
    r = m.degree_rank(k)
    n_el = m.n_elements
    flags = matroid_fan(m).cones()
    smalls = list(itertools.combinations(range(n_el), r - k + 1))
    larges = list(itertools.combinations(range(n_el), k + 1))
    for attempt in range(32):
        a, b = displacement_vectors(n_el, seed * 1000003 + attempt)
        try:
            points = []
            for flag in flags:
                for I in smalls:
                    for J in larges:
                        hit = intersect_triple(flag, I, J, a, b)
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
