"""Degree computation by stable intersection with displaced skeleton fans.

The matroid fan is intersected with a translate of the locus where the
r-k+1 smallest coordinates agree and a translate of the locus where the
k+1 largest coordinates agree.  Codimensions add up to the ambient
dimension, so for generic displacements the intersection is a finite set
of points; each contributes the index of the sum of the three span
lattices, and the total is the degree.

Candidate points are enumerated over triples (complete flag, I, J) and
found by solving the exact linear system that expresses membership in all
three translated cones.  Every inequality must hold strictly (the point
sits in three relative interiors); an exact tie means the displacement was
non-generic, which raises DegenerateSystem so the caller can redraw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .errors import DegenerateSystem, NotFullRank
from .exact import integer_kernel, lattice_index, solve_linear
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


def _check_monotone(n_elements: int, a: Vector, b: Vector) -> None:
    fa, fb = full_coordinates(a), full_coordinates(b)
    if len(fa) != n_elements or len(fb) != n_elements:
        raise ValueError("displacement vectors have the wrong dimension")
    if any(x <= y for x, y in zip(fa, fa[1:])):
        raise ValueError("first displacement must be strictly decreasing")
    if any(x >= y for x, y in zip(fb, fb[1:])):
        raise ValueError("second displacement must be strictly increasing")


@dataclass(frozen=True)
class IntersectionPoint:
    """One transversal meeting point with its lattice multiplicity."""

    point: Vector
    flag: FlagCone
    smallest: Subset
    largest: Subset
    index: int


def _equality_rows(n_elements: int, group: Subset) -> List[Tuple[int, ...]]:
    """Quotient-coordinate rows x_s - x_t for consecutive members s < t.

    They force the group's coordinates equal.  The dot product of a row with
    a displacement in quotient coordinates is that displacement's gap between
    s and t, because element 0 is pinned to zero.
    """
    ordered = sorted(group)
    rows = []
    for s, t in zip(ordered, ordered[1:]):
        row = [0] * (n_elements - 1)
        if s != 0:
            row[s - 1] = 1
        row[t - 1] = -1
        rows.append(tuple(row))
    return rows


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
    _check_monotone(n_el, a, b)
    I = frozenset(smallest)
    J = frozenset(largest)
    parts = flag_parts(n_el, flag)

    # Two members of I inside one part would force two equal entries of a
    # (likewise for J and b), and I meeting J twice would force an a-gap to
    # equal a b-gap; strict monotonicity rules all of these out, so such
    # triples are inconsistent without solving.
    for part in parts:
        if len(part & I) > 1 or len(part & J) > 1:
            return None
    if len(I & J) > 1:
        return None

    n = n_el - 1
    rows: List[Tuple[int, ...]] = []
    rhs: List[Fraction] = []
    for group, offset in [(part, (0,) * n) for part in parts] + [(I, a), (J, b)]:
        for row in _equality_rows(n_el, group):
            rows.append(row)
            rhs.append(sum(x * o for x, o in zip(row, offset)))

    status, solution = solve_linear(rows, rhs)
    if status == "inconsistent":
        return None
    if status == "underdetermined":
        raise DegenerateSystem("membership system is singular; redraw displacements")
    assert solution is not None
    full = full_coordinates(solution)

    # Relative-interior checks; an exact tie is a boundary hit.
    part_values = [full[min(p)] for p in parts]
    for hi, lo in zip(part_values, part_values[1:]):
        if hi == lo:
            raise DegenerateSystem("intersection point on a flag wall")
        if hi < lo:
            return None
    fa, fb = full_coordinates(a), full_coordinates(b)
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
    generators += integer_kernel(_equality_rows(n_el, I), n)
    generators += integer_kernel(_equality_rows(n_el, J), n)
    try:
        index = lattice_index(generators, n)
    except NotFullRank as exc:
        raise DegenerateSystem(f"span lattices do not fill the ambient space: {exc}")
    return IntersectionPoint(tuple(solution), flag, I, J, index)


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
