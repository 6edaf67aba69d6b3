"""Degree computation by lexicographic expansion of flag monomials.

A monomial is a flag of proper nonempty flats.  Multiplying by the
hyperplane class adds a new maximal flat forced to contain the smallest
element missing from the current top; multiplying by the complementary
class prepends a new minimal flat avoiding the smallest element of the
current bottom.  Expanding beta^k then alpha^(r-k) from the empty flag
leaves one monomial per complete flag whose label word descends exactly at
the first k positions, so the count of surviving flags is the degree.

A beta step reads only a monomial's bottom flat and an alpha step only its
top, so the expansion is counted, never listed.  The first beta flat T
stays the top through every later beta step, so the beta phase keeps, for
each T, one count per bottom flat: the counts per (bottom, top) pair,
grouped by top.  Each top's counts are summed, each alpha step sends a
top's count to every flat above it, and the degree is the sum.  A last step
needs only the number of candidates of each flat, so it keeps no counts.
For k = 0 the alpha phase starts from the empty flag, whose top reads as
the empty set.

The candidates come from bit-sliced flat columns.  The proper flats are the
lattice's int masks, numbered in its order, and holding[e] is an int over
those numbers with bit i set iff flat i holds e; avoiding[e] is its
complement.  A beta step's candidates are the flats avoiding every element
outside bottom - min(bottom): the AND of avoiding[e] over those e.  An
alpha step's candidates are the flats holding top + (least absentee): the
AND of holding[e] over its members.  Either set depends on one flat alone,
so it is computed once per distinct bottom or top in a call, and handed
out as flat masks.  Lex reads nothing of the lattice but its proper
flats and their members, so it shares no code with the chain and Moebius
oracles.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .matroid import Matroid, _basis_columns, _members


class _FlatColumns:
    """The proper flats of a matroid, with their candidate sets memoised
    per bottom (beta) and per top (alpha) mask, as flat masks in the
    lattice's order."""

    def __init__(self, m: Matroid):
        self.masks = m.lattice().proper_nonempty_flats()
        self.full = (1 << m.n_elements) - 1
        self._every = (1 << len(self.masks)) - 1
        # the flats transposed, as the bases are: bit i of holding[e] iff flat i holds e
        self._holding = _basis_columns(self.masks, m.n_elements)
        self._avoiding = [self._every & ~column for column in self._holding]
        self._below: Dict[int, List[int]] = {}
        self._above: Dict[int, List[int]] = {}

    def below(self, bottom: int) -> List[int]:
        """The flats inside bottom - min(bottom)."""
        found = self._below.get(bottom)
        if found is None:
            allowed = bottom & (bottom - 1)
            found = self._below[bottom] = self._select(self._avoiding, self.full & ~allowed)
        return found

    def above(self, top: int) -> List[int]:
        """The flats holding top plus its least absentee."""
        found = self._above.get(top)
        if found is None:
            found = self._above[top] = self._select(self._holding, top | ~top & (top + 1))
        return found

    def _select(self, columns: List[int], elements: int) -> List[int]:
        """The flats in columns[e] for every e in elements."""
        chosen = self._every
        for e in _members(elements):
            chosen &= columns[e]
        flats = []
        while chosen:
            low = chosen & -chosen
            flats.append(self.masks[low.bit_length() - 1])
            chosen ^= low
        return flats


def _count(counts: Dict[int, int], candidates: Callable[[int], List[int]], steps: int) -> int:
    """The monomials after `steps` more steps from counts keyed by the flat a
    step reads: each step sends a key's count to every candidate flat of
    that key, and the last step needs only the number of candidates."""
    if not steps:
        return sum(counts.values())
    for _ in range(steps - 1):
        grown: Dict[int, int] = {}
        for flat, count in counts.items():
            for candidate in candidates(flat):
                grown[candidate] = grown.get(candidate, 0) + count
        counts = grown
    return sum(count * len(candidates(flat)) for flat, count in counts.items())


def deg_lex(m: Matroid, k: int) -> int:
    """The number of complete flags left by the beta^k alpha^(r-k)
    expansion: each has degree one, so the count is the degree."""
    r = m.degree_rank(k)
    columns = _FlatColumns(m)
    below = columns.below
    tops = {top: _count({top: 1}, below, k - 1) for top in below(columns.full)} if k else {0: 1}
    return _count(tops, columns.above, r - k)
