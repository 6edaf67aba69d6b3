"""Degree computation by lexicographic expansion of flag monomials.

A monomial is a flag of proper nonempty flats.  Multiplying by the
hyperplane class adds a new maximal flat forced to contain the smallest
element missing from the current top; multiplying by the complementary
class prepends a new minimal flat avoiding the smallest element of the
current bottom.  Expanding beta^k then alpha^(r-k) from the empty flag
leaves one monomial per complete flag whose label word descends exactly at
the first k positions, so the count of surviving flags is the degree.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from .matroid import Matroid

Flat = FrozenSet[int]
FlagMonomial = Tuple[Flat, ...]


def lex_expand_alpha(m: Matroid, mono: FlagMonomial) -> List[FlagMonomial]:
    """Append one flat: candidates contain top(mono) plus its least absentee."""
    top = mono[-1] if mono else frozenset()
    e = next(e for e in m.elements if e not in top)
    needed = top | {e}
    return [
        mono + (flat,)
        for flat in m.lattice().proper_nonempty_flats()
        if needed <= flat
    ]


def lex_expand_beta(m: Matroid, mono: FlagMonomial) -> List[FlagMonomial]:
    """Prepend one flat: candidates avoid the least element of bottom(mono)."""
    bottom = mono[0] if mono else frozenset(m.elements)
    e = min(bottom)
    allowed = bottom - {e}
    return [
        (flat,) + mono
        for flat in m.lattice().proper_nonempty_flats()
        if flat <= allowed
    ]


def surviving_flags(m: Matroid, k: int) -> List[FlagMonomial]:
    """The complete flags left by the beta^k alpha^(r-k) expansion."""
    r = m.degree_rank(k)
    layer: List[FlagMonomial] = [()]
    for _ in range(k):
        layer = [child for mono in layer for child in lex_expand_beta(m, mono)]
    for _ in range(r - k):
        layer = [child for mono in layer for child in lex_expand_alpha(m, mono)]
    for mono in layer:
        _assert_flag(mono)
    return layer


def deg_lex(m: Matroid, k: int) -> int:
    """Each surviving complete flag has degree one, so the count is the degree."""
    return len(surviving_flags(m, k))


def _assert_flag(mono: FlagMonomial) -> None:
    for a, b in zip(mono, mono[1:]):
        if not a < b:
            raise AssertionError(f"expansion produced a non-flag monomial {mono}")
