"""Tropical divisors of piecewise-linear functions on weighted braid subfans.

A piecewise-linear function is a rule on the full coordinates of a point.
The two tropical hyperplane functions have closed forms: alpha(x) =
x_0 - min x and beta(x) = max x - x_0, linear on every braid cone and
equal to 1 on the rays e_S with 0 in S, respectively 0 not in S.

The divisor of f on a balanced weight w follows Allermann and Rau: on
each codimension-one face tau it is sum_sigma w(sigma) phi_sigma(e_S)
minus phi_tau(sum_sigma w(sigma) e_S), where S is the extra ray of sigma
over tau and phi_sigma is the linear function that f agrees with on
sigma.  Since e_S lies in sigma, the first term needs f only at the rays.
Balancing puts the sum v in the span of tau = (F_1 < ... < F_d), that is,
its full coordinates take one value c_i on each block F_i - F_(i-1), with
F_0 empty and F_(d+1) = E.  Then v = sum_(i<=d) (c_i - c_(i+1)) e_(F_i)
modulo the all-ones line, so phi_tau(v) = sum_(i<=d) (c_i - c_(i+1))
f(e_(F_i)) needs only rays too.  The block values come from gap totals,
not from v: each extra S lies in one gap F_(i-1) < S < F_i of tau, adds
its weight to every block below i and can be non-constant only on block
i, so c_j = own_j + sum_(i>j) W_i, where own_j is the constant the gap-j
extras take on block j and W_i the total weight in gap i (see `fan`).
Then c_j - c_(j+1) = own_j - own_(j+1) + W_(j+1), and regrouping the sum
by gaps gives phi_tau(v) = sum over occupied gaps i of
(W_i - own_i) f(e_(F_(i-1))) + own_i f(e_(F_i)), with f(e_(F_0)) and
f(e_(F_(d+1))) read as 0.  So each gap adds sum_S w (f(e_S) - f(e_(F_(i-1))))
- own_i (f(e_(F_i)) - f(e_(F_(i-1)))) to the divisor on tau.  The constancy
test on each gap is the balancing test, so the divisor checks that w is
balanced in the same walk over the faces, `fan.face_stars`, that
`is_balanced` runs.  Faces and rays are int masks throughout.  The divisor
is linear in w, negative weights included, and f is evaluated once per
distinct ray mask in a call.  The matroid fan has unit weights and the
functions take integer values on the rays, so every weight stays an int.

Iterating the two tropical hyperplane classes walks the rank window of the
truncation weights down to a number: beta trims the window from below,
alpha from above, and the 0-dimensional leftovers are the reduced
characteristic polynomial coefficients.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Mapping, Sequence, Tuple

from .errors import LoopPresent, RangeError, Unbalanced
from .fan import (
    MaskFlag,
    WeightedFan,
    face_stars,
    first_face,
    full_coordinates,
    gap_bounds,
    gap_value,
    mask_image,
    matroid_fan,
    require_balanced,  # unused here; bench/spans.py wraps it in this namespace
)
from .matroid import Matroid, _require_element


class PLFunction:
    """Piecewise-linear function on the braid fan, given by a rule on full coordinates."""

    __slots__ = ("n_elements", "rule")

    def __init__(self, n_elements: int, rule: Callable[[Tuple], object]):
        self.n_elements = n_elements
        self.rule = rule

    def __call__(self, point: Sequence):
        coords = full_coordinates(point)
        if len(coords) != self.n_elements:
            raise ValueError("point has the wrong dimension")
        return self.rule(coords)

    def __repr__(self):
        return f"PLFunction(n={self.n_elements})"


def pl_alpha(n_elements: int) -> PLFunction:
    """x_0 - min x: the function that is 1 exactly on the rays e_S with 0 in S."""
    return PLFunction(n_elements, lambda x: x[0] - min(x))


def pl_beta(n_elements: int) -> PLFunction:
    """max x - x_0: the function that is 1 exactly on the rays e_S with 0 not in S."""
    return PLFunction(n_elements, lambda x: max(x) - x[0])


def pl_linear(n_elements: int, coeffs: Mapping[int, int]) -> PLFunction:
    """The linear function sum c_e x_e; the coefficients must sum to 0 so that
    it is well defined on the quotient by the all-ones line."""
    for e in coeffs:
        _require_element(e, n_elements)
    if sum(coeffs.values()) != 0:
        raise ValueError("a linear function on the quotient needs coefficient sum 0")
    terms = tuple(coeffs.items())
    return PLFunction(n_elements, lambda x: sum(c * x[e] for e, c in terms))


def divisor(f: PLFunction, w: WeightedFan) -> WeightedFan:
    """Weight on each codimension-one face measuring the failure of f to be linear.

    Raises Unbalanced at the first face, in canonical order, where w does not balance."""
    if f.n_elements != w.n_elements:
        raise ValueError("ground set mismatch")
    if w.dim == 0:
        raise ValueError("cannot take the divisor of a 0-dimensional weight")
    n = w.n_elements
    full = (1 << n) - 1
    at_ray = functools.cache(lambda s: f(mask_image(n, s)) if 0 < s < full else 0)
    out: Dict[MaskFlag, int] = {}
    failed = set()
    for (tau, gap), extras in face_stars(w).items():
        lo, hi = gap_bounds(n, tau, gap)
        own = gap_value(lo, hi, extras)
        if own is None:
            failed.add(tau)
            continue
        f_lo = at_ray(lo)
        value = out.get(tau, 0) - own * (at_ray(hi) - f_lo)
        for s, weight in extras:
            value += weight * (at_ray(s) - f_lo)
        out[tau] = value
    if failed:
        raise Unbalanced(first_face(failed))
    return WeightedFan._from_masks(n, w.dim - 1, {tau: v for tau, v in out.items() if v})


def truncation_weight(m: Matroid, r1: int, r2: int) -> WeightedFan:
    """Flags of flats of consecutive ranks r1..r2, weighted |mobius(bottom flat)|.

    Balance is not checked here; `divisor` and `is_balanced` check it."""
    if not m.is_loopless():
        raise LoopPresent("truncation weights need a loopless matroid")
    r = m.rank() - 1
    if not (1 <= r1 <= r2 <= r):
        raise RangeError(f"rank window [{r1}, {r2}] outside 1 <= r1 <= r2 <= {r}")
    lat = m.lattice()
    weights = {c: abs(lat.mobius[c[0]]) for c in lat.chains(r1, r2)}
    return WeightedFan._from_masks(m.n_elements, r2 - r1 + 1, weights)


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
    return w.weights.get((), 0)
