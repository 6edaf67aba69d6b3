"""Frozenset references for the fan walk, and skeleton fans to hold it to.

The shipped walk in `matchow.fan` reads masks and gap totals.  These
references take the long way round: every face's star of frozenset rays,
the weighted sum of the extra rays as a point, the span test as a rational
linear solve, and phi_tau of the sum from the solved coefficients.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from matchow import Matroid, Unbalanced, e_image, truncation_weight
from matchow.exact import solve_linear
from matchow.fan import WeightedFan, face_stars, flag_key


def codim_one_stars(fan: WeightedFan):
    """Every codimension-one face tau in canonical order, with the extra ray
    and weight of each cone of the fan that contains it, and the weighted
    sum of those extra rays in quotient coordinates."""
    n = fan.n_elements
    stars = {}
    for sigma in fan.cones():
        for i, extra in enumerate(sigma):
            stars.setdefault(sigma[:i] + sigma[i + 1 :], []).append((extra, fan.weight(sigma)))
    out = []
    for tau in sorted(stars, key=flag_key):
        # full coordinates of the sum of w * e_S add w to each member of S;
        # pinning element 0 to zero turns them into quotient coordinates
        full = [0] * n
        for extra, w in stars[tau]:
            for e in extra:
                full[e] += w
        out.append((tau, stars[tau], tuple(x - full[0] for x in full[1:])))
    return out


def mask_subset(mask: int) -> frozenset:
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


def walked_stars(fan: WeightedFan) -> dict:
    """`face_stars` of the fan as frozenset faces, each with its sorted
    (extra members, weight) pairs over every gap."""
    out = {}
    for (tau, _), extras in face_stars(fan).items():
        star = out.setdefault(tuple(map(mask_subset, tau)), [])
        star += [(tuple(sorted(mask_subset(s))), w) for s, w in extras]
    return {tau: sorted(star) for tau, star in out.items()}


def span_coefficients(flag, point):
    """The a with point = sum a_i e_(F_i) modulo the all-ones line, by a
    rational linear solve, or None when the point leaves the span."""
    n = len(point) + 1
    rays = [e_image(n, s) for s in flag]
    matrix = [[Fraction(ray[i]) for ray in rays] for i in range(n - 1)]
    status, solution = solve_linear(matrix, [Fraction(x) for x in point])
    if status == "inconsistent":
        return None
    assert status == "unique", "the rays of a flag are independent"
    return solution


def span_reference(flag, point) -> bool:
    """The span test as a rational linear system in the flag's rays."""
    return span_coefficients(flag, point) is not None


def reference_certificate(fan: WeightedFan):
    """The first face in canonical order whose sum leaves its span, or None."""
    for tau, _, total in codim_one_stars(fan):
        if not span_reference(tau, total):
            return tau
    return None


def reference_divisor(f, w: WeightedFan) -> WeightedFan:
    """sum w(sigma) f(e_S) - phi_tau(sum w(sigma) e_S) on each face, with
    phi_tau(v) = sum a_i f(e_(F_i)) for the solved coefficients a of v."""
    n = w.n_elements
    out = {}
    for tau, star, total in codim_one_stars(w):
        coefficients = span_coefficients(tau, total)
        if coefficients is None:
            raise Unbalanced(tau)
        value = sum(weight * f(e_image(n, extra)) for extra, weight in star)
        value -= sum(a * f(e_image(n, s)) for a, s in zip(coefficients, tau))
        assert Fraction(value).denominator == 1
        if value != 0:
            out[tau] = int(value)
    return WeightedFan(n, w.dim - 1, out)


def skeleton(n: int, dim: int) -> dict:
    """Unit weights on every flag of `dim` proper nonempty subsets of
    {0..n-1}: the dim-skeleton of the braid fan.  It is balanced, and a face
    can have extras in several gaps: the extras in a gap are all the proper
    nonempty subsets of its block, which cover each element equally often."""
    subsets = [
        frozenset(c) for size in range(1, n) for c in itertools.combinations(range(n), size)
    ]
    flags = [()]
    for _ in range(dim):
        flags = [f + (s,) for f in flags for s in subsets if not f or f[-1] < s]
    return {flag: 1 for flag in flags}


def signed_skeleton_fans(n: int, dim: int, seed: int):
    """A balanced fan on the dim-skeleton with seeded random signed weights,
    a random signed combination of the unit skeleton and the boolean
    matroid's windows of that dimension, and a copy with one cone's weight
    moved, which is not balanced."""
    rng = random.Random(seed)
    scale = rng.choice((-3, -2, -1, 1, 2, 3))
    weights = {flag: scale for flag in skeleton(n, dim)}
    b = Matroid.boolean(n)
    for r1 in range(1, n - dim + 1):
        window = truncation_weight(b, r1, r1 + dim - 1)
        c = rng.randint(-3, 3)
        for cone in window.cones():
            weights[cone] += c * window.weight(cone)
    balanced = WeightedFan(n, dim, weights)
    cone = rng.choice(sorted(weights, key=flag_key))
    broken = balanced.reweighted(cone, balanced.weight(cone) + rng.choice((-2, -1, 1, 2)))
    return balanced, broken
