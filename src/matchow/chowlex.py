"""Degree computation by lexicographic expansion of flag monomials.

A monomial is a flag of proper nonempty flats.  Multiplying by the
hyperplane class adds a new maximal flat forced to contain the smallest
element missing from the current top; multiplying by the complementary
class prepends a new minimal flat avoiding the smallest element of the
current bottom.  Expanding beta^k then alpha^(r-k) from the empty flag
leaves one monomial per complete flag whose label word descends exactly at
the first k positions, so the count of surviving flags is the degree.

The expansion runs on bit-sliced flat columns.  The proper flats are the
lattice's int masks, numbered in its order, and holding[e] is an int over
those numbers with bit i set iff flat i holds e.  A beta step's candidates
are the flats avoiding every element outside bottom - min(bottom): the AND
of ~holding[e] over those e.  An alpha step's candidates are the flats
holding top + (least absentee): the AND of holding[e] over its members.
Either set depends on one flat alone, so it is computed once per distinct
bottom or top in a call, and a step is a lookup.  Monomials are tuples of
flat numbers, in ascending candidate order, which is the lattice's order.
Only the survivors become frozenset flags, one frozenset per distinct flat
among them.  Lex reads nothing of the lattice but its proper flats and
their members, so it shares no code with the chain and Moebius oracles.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from .matroid import Matroid, _basis_columns, _members

Flat = FrozenSet[int]
FlagMonomial = Tuple[Flat, ...]


class _FlatColumns:
    """The proper flats of a matroid, with their candidate sets memoised
    per bottom (beta) and per top (alpha) mask, as ascending flat numbers."""

    def __init__(self, m: Matroid):
        self.masks = m.lattice().proper_nonempty_flats()
        self.full = (1 << m.n_elements) - 1
        self._every = (1 << len(self.masks)) - 1
        # the flats transposed, as the bases are: bit i of holding[e] iff flat i holds e
        self._holding = _basis_columns(self.masks, m.n_elements)
        self._below: Dict[int, Tuple[int, ...]] = {}
        self._above: Dict[int, Tuple[int, ...]] = {}

    def below(self, bottom: int) -> Tuple[int, ...]:
        """The flats inside bottom - min(bottom)."""
        found = self._below.get(bottom)
        if found is None:
            allowed = bottom & (bottom - 1)
            candidates = self._every
            for e in _members(self.full & ~allowed):
                candidates &= ~self._holding[e]
            found = self._below[bottom] = _members(candidates)
        return found

    def above(self, top: int) -> Tuple[int, ...]:
        """The flats holding top plus its least absentee."""
        found = self._above.get(top)
        if found is None:
            candidates = self._every
            for e in _members(top | ~top & (top + 1)):
                candidates &= self._holding[e]
            found = self._above[top] = _members(candidates)
        return found


def surviving_flags(m: Matroid, k: int) -> List[FlagMonomial]:
    """The complete flags left by the beta^k alpha^(r-k) expansion."""
    r = m.degree_rank(k)
    columns = _FlatColumns(m)
    masks, below, above = columns.masks, columns.below, columns.above
    layer: List[Tuple[int, ...]] = [()]
    for _ in range(k):
        layer = [
            (i,) + mono
            for mono in layer
            for i in below(masks[mono[0]] if mono else columns.full)
        ]
    for _ in range(r - k):
        layer = [
            mono + (i,)
            for mono in layer
            for i in above(masks[mono[-1]] if mono else 0)
        ]
    views = {i: _view(masks[i]) for i in set().union(*layer)}
    survivors = [tuple(map(views.__getitem__, mono)) for mono in layer]
    for mono in survivors:
        _assert_flag(mono)
    return survivors


def deg_lex(m: Matroid, k: int) -> int:
    """Each surviving complete flag has degree one, so the count is the degree."""
    return len(surviving_flags(m, k))


def _view(mask: int) -> Flat:
    return frozenset(_members(mask))


def _assert_flag(mono: FlagMonomial) -> None:
    for a, b in zip(mono, mono[1:]):
        if not a < b:
            raise AssertionError(f"expansion produced a non-flag monomial {mono}")
