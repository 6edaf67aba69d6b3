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
f(e_(F_i)) needs only rays too.  The block read is the balancing test, so
the divisor checks that w is balanced in the same walk over the faces.
The divisor is linear in w, negative weights included, and f is evaluated
once per distinct ray in a call.  The matroid fan has unit weights and
the functions take integer values on the rays, so every weight stays an
int.

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
    FlagCone,
    WeightedFan,
    _block_values,
    codim_one_stars,
    e_image,
    full_coordinates,
    matroid_fan,
    require_balanced,  # unused here; bench/spans.py wraps it in this namespace
)
from .matroid import Matroid


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
        if type(e) is not int or not 0 <= e < n_elements:
            raise ValueError(f"coefficient key {e!r} is not an element of 0..{n_elements - 1}")
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
    at_ray = functools.cache(lambda s: f(e_image(n, s)))
    out: Dict[FlagCone, int] = {}
    for tau, star, combined in codim_one_stars(w):
        blocks = _block_values(tau, combined)
        if blocks is None:
            raise Unbalanced(tau)
        value = sum(weight * at_ray(extra) for extra, weight in star)
        value -= sum((c - c_next) * at_ray(s) for s, c, c_next in zip(tau, blocks, blocks[1:]))
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
    weights = {flag: abs(lat.mobius[flag[0]]) for flag in lat.chains(r1, r2)}
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
    return w.weights.get((), 0)
