"""Exact matroid characteristic polynomial coefficients, four independent ways.

The reduced characteristic polynomial of a loopless matroid is
mu^0 q^r - mu^1 q^(r-1) + ... + (-1)^r mu^r.  Each unsigned coefficient
can be read off as an intersection number on the braid fan, and this
package computes it by four separate routes that share no geometry code:

  deg_lex       lexicographic expansion of flag monomials in the Chow ring
  deg_pp        chamber sums of piecewise polynomials, as a dynamic program
                over prefix sets, exact modulo two primes
  deg_stable    stable intersection with displaced skeleton fans
  deg_tropical  iterated tropical divisors of piecewise-linear functions

plus two combinatorial oracles on the matroid itself: the signed subset
sum / Moebius polynomial (``Matroid.mu``) and counting maximal chains of
flats by descent set (``Matroid.chains_with_descent_set``).
"""

from .chowlex import deg_lex
from .errors import (
    DegeneratePoint,
    DegenerateSystem,
    EmptyBases,
    ExchangeViolation,
    KOutOfRange,
    LoopContract,
    LoopPresent,
    MatchowError,
    NotFullRank,
    RangeError,
    Unbalanced,
)
from .fan import braid_cone_of, e_image, full_coordinates, is_balanced, matroid_fan
from .matroid import Matroid, complete_graph_k4, poly_q_str, triangle_with_pendant
from .piecewise import deg_pp
from .stable import deg_stable, intersect_triple, stable_intersection_points
from .tropical import deg_tropical, divisor, pl_alpha, pl_beta, pl_linear, truncation_weight

__version__ = "0.1.0"

# What the README quick start, the demos and the acceptance gate import, plus
# every exception class; everything else is imported from its submodule.
__all__ = [
    "DegeneratePoint",
    "DegenerateSystem",
    "EmptyBases",
    "ExchangeViolation",
    "KOutOfRange",
    "LoopContract",
    "LoopPresent",
    "MatchowError",
    "Matroid",
    "NotFullRank",
    "RangeError",
    "Unbalanced",
    "braid_cone_of",
    "complete_graph_k4",
    "deg_lex",
    "deg_pp",
    "deg_stable",
    "deg_tropical",
    "divisor",
    "e_image",
    "full_coordinates",
    "intersect_triple",
    "is_balanced",
    "matroid_fan",
    "pl_alpha",
    "pl_beta",
    "pl_linear",
    "poly_q_str",
    "stable_intersection_points",
    "triangle_with_pendant",
    "truncation_weight",
]
