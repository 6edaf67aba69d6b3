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

plus two combinatorial oracles on the matroid itself: Whitney's sum over
the no-broken-circuit sets, asserted equal to the Moebius polynomial
(``Matroid.mu``), and the count of maximal chains of flats by descent set,
one upward pass over the covers labelled by their least new element
(``Matroid.chains_with_descent_set``).
"""

from importlib import import_module

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
from .matroid import Matroid, complete_graph_k4, poly_q_str, triangle_with_pendant

__version__ = "0.1.0"

# What the README quick start, the demos and the acceptance gate import, plus
# every exception class; everything else is imported from its submodule.  The
# exceptions and the matroid layer load with the package; the fan and the
# routes load on first access (`__getattr__` below), so `import matchow` and
# every CLI call compile only the modules they use.
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

# name -> the submodule that defines it, for the names loaded on first access
_LAZY = {
    name: module
    for module, names in (
        ("chowlex", ("deg_lex",)),
        ("fan", ("braid_cone_of", "e_image", "full_coordinates", "is_balanced", "matroid_fan")),
        ("piecewise", ("deg_pp",)),
        ("stable", ("deg_stable", "intersect_triple", "stable_intersection_points")),
        ("tropical", ("deg_tropical", "divisor", "pl_alpha", "pl_beta", "pl_linear",
                      "truncation_weight")),
    )
    for name in names
}


def __getattr__(name: str):
    """Import the submodule that defines name once, and keep the name here."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
