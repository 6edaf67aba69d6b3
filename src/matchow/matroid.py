"""Matroids given by their bases, with the lattice-of-flats combinatorics.

A matroid lives on the ground set {0, ..., n_elements-1} with the natural
order.  Everything downstream (flags, fans, Chow classes) keys off this
fixed order, so minors relabel their ground sets back to an initial segment,
preserving relative order.

Inside this module a subset of the ground set is an int mask with bit e set
for element e: bases, rank queries, closures and flats are mask operations,
and `FlatLattice` hands out its flats and chains as those masks.
Frozensets appear only at the edge: `Matroid.bases`, `closure`, `loops`
and `coloops`; `rank` and `closure` accept any iterable of elements.
Every construction, the named constructors, minors, duals and truncations
included, runs the full basis-exchange check.

The exchange check groups the pairs (B1, x) by T = B1 - x.  The ys with
T + y a basis form a set Y_T that holds x and depends on T alone (in a
matroid it is the cocircuit E - cl(T)), and B1 - x + y is a basis for some
y in B2 - B1 exactly when B2 meets Y_T.  So the verdict depends on Y_T
alone, and each distinct Y_T costs one test: transposed over basis
indices, its columns together must cover every basis.

The distinct Y_T are every cocircuit, and their complements every
hyperplane.  The matroid keeps them, and on the first closure or lattice
query sorts the hyperplanes by their element tuples and transposes them
into one column per element: bit j of column e is set iff the j-th
hyperplane holds e.  A flat of rank below r
is the intersection of the hyperplanes that hold it (Oxley, Matroid
Theory, ch. 1), so a closure is one AND of columns and one scan: cl(S)
holds x iff every hyperplane holding S holds x.  Loops are the elements
no basis holds, read off the bases, so minors and the degree guard never
build the hyperplane columns.

The characteristic polynomial is always computed twice, by Whitney's sum
over the sets that hold no broken circuit and by the Moebius sum over the
lattice of flats, and the two are asserted equal; callers therefore get a
value that has already survived one independent cross-check.  The NBC sum
tests independence by membership in the family of subsets of bases, not by
the hyperplane columns the lattice is built on, so the two sums share no
rank code.  The lattice builds its Moebius values on their first read, so
the degree routes, which read only flats, covers and chains, never pay for
them.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, or_
from typing import Dict, FrozenSet, Iterable, Iterator, Sequence, Set, Tuple

from .errors import (
    EmptyBases,
    ExchangeViolation,
    KOutOfRange,
    LoopContract,
    LoopPresent,
)

Flat = FrozenSet[int]
Chain = Tuple[int, ...]


def _members(mask: int) -> Tuple[int, ...]:
    """The elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _require_element(e, n_elements: int) -> None:
    # type() rather than isinstance(): True is no name for element 1
    if type(e) is not int or not 0 <= e < n_elements:
        raise ValueError(f"element {e!r} is not an integer in 0..{n_elements - 1}")


def _subset_mask(n_elements: int, subset: Iterable[int]) -> int:
    """The mask of a subset of E, each member gated by `_require_element`."""
    mask = 0
    for e in subset:
        _require_element(e, n_elements)
        mask |= 1 << e
    return mask


def _basis_columns(masks: Sequence[int], n_elements: int) -> list[int]:
    """The masks transposed: bit i of column e is set iff masks[i] holds e.

    Every mask is written as the same number of little-endian bytes, so
    byte c of all of them is one strided slice.  Reversed, so that masks[0]
    comes last, and translated through a table that spells bit k of each
    byte as b"0" or b"1", that slice is column 8c + k as a binary numeral."""
    if not masks:
        return [0] * n_elements
    width = (n_elements + 7) >> 3
    data = b"".join([b.to_bytes(width, "little") for b in masks])
    columns = []
    for c in range(width):
        chunk = data[c::width][::-1]
        for k in range(min(8, n_elements - 8 * c)):
            spell = (b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k)
            columns.append(int(chunk.translate(spell), 2))
    return columns


def _one_smaller(masks: Iterable[int]) -> Set[int]:
    """Every mask obtained from one of the masks by clearing one set bit."""
    out = set()
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            out.add(mask ^ low)
            rest ^= low
    return out


# ---------------------------------------------------------------------------
# Univariate integer polynomials in q, as coefficient tuples (index = power)
# ---------------------------------------------------------------------------


def poly_q_str(coeffs: Sequence[int]) -> str:
    """Render an integer polynomial in q, given ascending coefficients."""
    bits = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            q = "q" if power == 1 else f"q^{power}"
            body = q if mag == 1 else f"{mag}*{q}"
        bits.append((sign, body))
    if not bits:
        return "0"
    first_sign, first_body = bits[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in bits[1:]:
        out += f" {sign} {body}"
    return out


def _poly_divide_by_q_minus_1(coeffs: Sequence[int]) -> Tuple[int, ...]:
    """Exact division by (q - 1); raises if the remainder is nonzero."""
    quotient = [0] * (len(coeffs) - 1)
    carry = 0
    for power in range(len(coeffs) - 1, 0, -1):
        carry += coeffs[power]
        quotient[power - 1] = carry
    if carry + coeffs[0] != 0:
        raise ArithmeticError("polynomial not divisible by q - 1")
    return tuple(quotient)


# ---------------------------------------------------------------------------
# The lattice of flats
# ---------------------------------------------------------------------------


class FlatLattice:
    """Flats of a matroid ordered by inclusion, graded by rank.

    Built on masks and the matroid's hyperplane columns.  Each flat F
    carries its hyperplane set h_F, a bitmap over the hyperplanes that hold
    it; the bottom is the loops, which every hyperplane holds.  The cover
    cl(F + e) of F is the intersection of the hyperplanes in h_F & column e,
    and two elements outside F give the same cover exactly when they lie in
    the same hyperplanes through F.  So the elements outside F, grouped by
    that key, are the covers less F, one group per cover, and each key is
    its cover's hyperplane set.  The grouping stops below rank r - 2: the
    hyperplanes come off the cocircuits, in the order the columns number
    them, which is the level order; a flat F of rank r - 2 is covered by
    the hyperplanes in h_F, and each hyperplane by E alone.  Every flat it
    hands out, in levels, covers, chains and as a key of `flat_rank` and
    `mobius`, is that mask.  Each level is sorted by its flats' sorted
    element tuples, and the covers of a flat follow the level order, so the
    chains come out in the order that flags, cones and the lex expansion
    follow.

    `mobius` is built on its first read and then kept, bottom-up from
    mu(bottom) = 1 and sum_{G <= F} mu(G) = 0 for F above the bottom.  The
    flats below F are gathered along the cover relation into a bitmap over
    flat indices, and the flats seen so far are kept in one bitmap per
    Moebius value, so the sum is one popcount per value.
    """

    def __init__(self, matroid: "Matroid"):
        bits = [(1 << e, column) for e, column in enumerate(matroid._hyperplane_columns())]
        levels = [[matroid._loops]]
        # the hyperplane sets of the last level's flats
        through = {matroid._loops: (1 << len(matroid._cocircuits)) - 1}
        covers: Dict[int, Tuple[int, ...]] = {}
        r = matroid.rank()
        for _ in range(r - 2):
            fresh: Dict[int, int] = {}
            for f in levels[-1]:
                h = through[f]
                groups: Dict[int, int] = {}
                for bit, column in bits:
                    if not f & bit:
                        key = h & column
                        groups[key] = groups.get(key, 0) | bit
                # groups open in the order of their least elements, which is
                # the level order of their covers: no two flats of one rank nest
                covers[f] = above = tuple(f | g for g in groups.values())
                fresh.update(zip(above, groups))
            through = fresh
            levels.append(sorted(fresh, key=_members))
        if r > 1:
            # a flat of rank r - 2 is covered by the hyperplanes that hold it,
            # which the columns number in level order
            hyperplanes = matroid._hyperplanes
            for f in levels[-1]:
                covers[f] = tuple(hyperplanes[j] for j in _members(through[f]))
            levels.append(hyperplanes)
        if r:
            # E is the one flat above each hyperplane
            top = (1 << matroid.n_elements) - 1
            covers.update(dict.fromkeys(levels[-1], (top,)))
            levels.append([top])

        self.flats_by_rank: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, levels))
        self.bottom: int = levels[0][0]
        self.top: int = levels[-1][0]
        self.flat_rank: Dict[int, int] = {
            f: rk for rk, level in enumerate(levels) for f in level
        }
        self._covers_above = covers
        self._mobius: Dict[int, int] | None = None
        self._proper: Tuple[int, ...] = tuple(f for level in levels[1:-1] for f in level)

    @property
    def mobius(self) -> Dict[int, int]:
        """Moebius value mu(bottom, F) of each flat F, built on the first read."""
        if self._mobius is None:
            self._mobius = self._moebius_values()
        return self._mobius

    def _moebius_values(self) -> Dict[int, int]:
        index = {f: i for i, f in enumerate(self.flats())}
        below = dict.fromkeys(index, 0)  # the flats under each flat, by index
        for f, above in self._covers_above.items():
            under = below[f] | 1 << index[f]
            for g in above:
                below[g] |= under
        mus: list[int] = []
        by_value: Dict[int, int] = {}  # the flats seen so far, by Moebius value
        for i, under in enumerate(below.values()):
            terms = [v * (under & seen).bit_count() for v, seen in by_value.items()]
            mu = -sum(terms) if under else 1
            mus.append(mu)
            by_value[mu] = by_value.get(mu, 0) | 1 << i
        return dict(zip(index, mus))

    def flats(self) -> Iterator[int]:
        for level in self.flats_by_rank:
            yield from level

    def proper_nonempty_flats(self) -> Tuple[int, ...]:
        """Flats other than the bottom and the full ground set, by rank."""
        return self._proper

    def covers_above(self, flat: int) -> Tuple[int, ...]:
        return self._covers_above.get(flat, ())

    def chains(self, lo: int, hi: int) -> Iterator[Chain]:
        """Saturated chains F_lo < ... < F_hi of flats with rank(F_i) = i; for
        hi = lo - 1 the single empty chain, and none for hi < lo - 1."""
        if hi < lo:
            if hi == lo - 1:
                yield ()
            return
        for chain in self.chains(lo, hi - 1):
            for g in self.covers_above(chain[-1]) if chain else self.flats_by_rank[lo]:
                yield chain + (g,)

    def maximal_chains(self) -> Iterator[Chain]:
        """All chains bottom = F_0 < F_1 < ... < F_rank = top."""
        return self.chains(0, len(self.flats_by_rank) - 1)


def jordan_holder_word(chain: Chain) -> Tuple[int, ...]:
    """Minimal new element along each cover step of a maximal chain: the
    lowest bit of g ^ f for each cover f < g."""
    return tuple(
        ((g ^ f) & -(g ^ f)).bit_length() - 1 for f, g in zip(chain, chain[1:])
    )


def descent_set(word: Sequence[int]) -> FrozenSet[int]:
    """Positions i (1-indexed) where the word steps down."""
    return frozenset(
        i for i in range(1, len(word)) if word[i - 1] > word[i]
    )


# ---------------------------------------------------------------------------
# Matroid
# ---------------------------------------------------------------------------


class Matroid:
    """A matroid on {0..n-1}, stored as its bases: a sorted tuple of int masks.

    Instances are immutable after construction; minors and duals return new
    objects.  Every construction verifies the basis-exchange axiom.
    `bases` is the frozenset view of the masks, `_cocircuits` the distinct
    cocircuits the exchange check collects, and `_loops` the mask of the
    elements that no basis holds (see the module docstring).
    """

    __slots__ = (
        "n_elements", "_masks", "_cocircuits", "_loops", "_hyperplanes", "_hcolumns", "_lattice",
        "_char_poly",
    )

    def __init__(self, n_elements: int, bases: Iterable[Iterable[int]]):
        if type(n_elements) is not int:
            raise ValueError(f"n_elements={n_elements!r} is not an integer")
        if n_elements < 0:
            raise ValueError(f"n_elements={n_elements} is negative")
        masks = []
        for b in bases:
            b = tuple(b)
            mask = _subset_mask(n_elements, b)
            if mask.bit_count() != len(b):
                raise ValueError(f"basis {list(b)} lists an element twice")
            masks.append(mask)
        if not masks:
            raise EmptyBases("a matroid needs at least one basis")
        sizes = {mask.bit_count() for mask in masks}
        if len(sizes) != 1:
            raise ExchangeViolation(f"bases of unequal size: {sorted(sizes)}")
        self._masks: Tuple[int, ...] = tuple(sorted(set(masks)))
        self._cocircuits: Tuple[int, ...] = _check_exchange(self._masks)
        self.n_elements = n_elements
        self._loops = ((1 << n_elements) - 1) & ~reduce(or_, self._masks)
        self._hyperplanes: Tuple[int, ...] = ()
        self._hcolumns: list[int] | None = None
        self._lattice: FlatLattice | None = None
        self._char_poly: Tuple[int, ...] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, rank: int, n_elements: int) -> "Matroid":
        if type(rank) is not int or type(n_elements) is not int:
            raise ValueError(f"rank={rank!r} and n_elements={n_elements!r} must be integers")
        if not (0 <= rank <= n_elements):
            raise ValueError("need 0 <= rank <= n_elements")
        return cls(
            n_elements,
            itertools.combinations(range(n_elements), rank),
        )

    @classmethod
    def boolean(cls, n_elements: int) -> "Matroid":
        return cls.uniform(n_elements, n_elements)

    @classmethod
    def from_graph(cls, edges: Sequence[Sequence]) -> "Matroid":
        """Cycle matroid of a multigraph; elements are edge indices in input order."""
        edges = list(edges)
        for e in edges:
            pair = isinstance(e, (list, tuple)) and len(e) == 2
            # type() rather than isinstance(): a bool is no name for a vertex
            if not pair or not {type(v) for v in e} <= {int, str}:
                raise ValueError(f"edge {e!r} is not a pair of int or string vertices")
        vertices = {v for e in edges for v in e}
        index = {v: i for i, v in enumerate(sorted(vertices, key=repr))}
        ends = [(index[u], index[v]) for u, v in edges]
        # a union-find without path compression, so a union undoes by
        # restoring one parent
        parent = list(range(len(index)))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        full_rank = 0  # the edges of any spanning forest
        for u, v in ends:
            u, v = find(u), find(v)
            if u != v:
                parent[u] = v
                full_rank += 1
        parent[:] = range(len(index))

        # include/exclude walk over the edges: an edge is included when it
        # joins two components, and passed over while enough edges remain
        bases: list[Tuple[int, ...]] = []
        chosen: list[int] = []

        def walk(i: int) -> None:
            while len(edges) - i >= full_rank - len(chosen):
                if len(chosen) == full_rank:
                    bases.append(tuple(chosen))
                    return
                u, v = find(ends[i][0]), find(ends[i][1])
                if u != v:
                    parent[u] = v
                    chosen.append(i)
                    walk(i + 1)
                    chosen.pop()
                    parent[u] = u
                i += 1

        walk(0)
        del walk  # walk refers to itself; free the cycle now, not at the next collection
        return cls(len(edges), bases)

    @classmethod
    def fano(cls) -> "Matroid":
        """The seven-point projective plane over GF(2)."""
        lines = [
            frozenset(s)
            for s in ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
        ]
        bases = [
            t
            for t in itertools.combinations(range(7), 3)
            if frozenset(t) not in lines
        ]
        return cls(7, bases)

    # -- basic queries -------------------------------------------------------

    @property
    def elements(self) -> range:
        return range(self.n_elements)

    @property
    def bases(self) -> FrozenSet[Flat]:
        return frozenset(frozenset(_members(b)) for b in self._masks)

    def rank(self, subset: Iterable[int] | None = None) -> int:
        if subset is None:
            return self._masks[0].bit_count()
        key = _subset_mask(self.n_elements, subset)
        return max((key & b).bit_count() for b in self._masks)

    def closure(self, subset: Iterable[int]) -> Flat:
        return frozenset(_members(self._closure_mask(_subset_mask(self.n_elements, subset))))

    def _hyperplane_columns(self) -> list[int]:
        """The hyperplanes E - Y, sorted by their element tuples into
        `_hyperplanes`, and transposed: bit j of column e is set iff the
        j-th hyperplane holds e.  Built on the first closure or lattice query."""
        if self._hcolumns is None:
            full = (1 << self.n_elements) - 1
            self._hyperplanes = tuple(sorted((full ^ y for y in self._cocircuits), key=_members))
            self._hcolumns = _basis_columns(self._hyperplanes, self.n_elements)
        return self._hcolumns

    def _closure_mask(self, subset: int) -> int:
        """cl(S) is the intersection of the hyperplanes holding S, or E when
        none does: with h the AND of the columns of S, x is in cl(S) iff its
        column holds h."""
        columns = self._hyperplane_columns()
        h = (1 << len(self._cocircuits)) - 1
        for e in _members(subset):
            h &= columns[e]
        flat = 0
        for x, column in enumerate(columns):
            if column & h == h:
                flat |= 1 << x
        return flat

    def loops(self) -> Flat:
        return frozenset(_members(self._loops))

    def is_loopless(self) -> bool:
        return not self._loops

    def coloops(self) -> Flat:
        return frozenset(_members(reduce(and_, self._masks)))

    def lattice(self) -> FlatLattice:
        if self._lattice is None:
            self._lattice = FlatLattice(self)
        return self._lattice

    # -- characteristic polynomial -------------------------------------------

    def char_poly(self) -> Tuple[int, ...]:
        """Coefficients of chi(q), ascending in the power of q.

        Computed by Whitney's sum over the sets that contain no broken
        circuit (NBC), a broken circuit being a circuit less its least
        element: chi(q) is the sum of (-1)^|S| q^(r-|S|) over them (Whitney
        1932, Rota 1964).  A loop makes the empty set a broken circuit, so
        then chi = 0; otherwise the Moebius sum over flats is computed as
        well and the two are asserted identical.  The first call stores the
        result.

        An independent S is NBC iff no e outside S lies in the closure of
        the members of S above e.  So the walk goes depth-first, prepending
        smaller elements: it keeps S + s, for s below every member of S, iff
        S + s and every S + s + e with e < s are independent.  Independence
        is membership in the family of subsets of bases, never a rank or
        closure query, so the two sums share no rank code.
        """
        if self._char_poly is not None:
            return self._char_poly
        full_rank = self.rank()
        coeffs = [0] * (full_rank + 1)
        if not self._loops:
            independent = set(self._masks)
            layer = independent
            while layer:
                layer = _one_smaller(layer)
                independent |= layer

            def walk(nbc: int, least: int, sign: int) -> None:
                coeffs[full_rank - nbc.bit_count()] += sign
                for s in range(least):
                    grown = nbc | 1 << s
                    if grown not in independent:
                        break  # and S + t + s is dependent for every t > s
                    if all(grown | 1 << e in independent for e in range(s)):
                        walk(grown, s, -sign)

            walk(0, self.n_elements, 1)
            del walk  # as in from_graph, and it holds the independent family

            lat = self.lattice()
            via_mobius = [0] * (full_rank + 1)
            for flat, mu in lat.mobius.items():
                via_mobius[full_rank - lat.flat_rank[flat]] += mu
            if via_mobius != coeffs:
                raise AssertionError(
                    "NBC and Moebius characteristic polynomials disagree"
                )
        self._char_poly = tuple(coeffs)
        return self._char_poly

    def degree_rank(self, k: int) -> int:
        """r = rank - 1 for a loopless matroid with 0 <= k <= r: every degree route's guard."""
        if not self.is_loopless():
            raise LoopPresent("degree needs a loopless matroid")
        r = self.rank() - 1
        if r < 0:
            raise KOutOfRange("a rank-0 matroid has no degrees (r = rank - 1 = -1)")
        if type(k) is not int or not 0 <= k <= r:
            raise KOutOfRange(f"k={k!r} outside 0..{r}")
        return r

    def reduced_char_poly(self) -> Tuple[int, ...]:
        """Coefficients of chi(q)/(q-1), ascending; requires looplessness.

        A loopless matroid of rank 0 (the empty ground set) has chi(q) = 1,
        which q - 1 does not divide, so it has no reduced polynomial.
        """
        if not self.is_loopless():
            raise LoopPresent("reduced characteristic polynomial needs a loopless matroid")
        if self.rank() == 0:
            raise KOutOfRange(
                "a rank-0 matroid has no reduced characteristic polynomial (chi(q) = 1)"
            )
        return _poly_divide_by_q_minus_1(self.char_poly())

    def mu(self, k: int) -> int:
        """Unsigned coefficient of q^(r-k) in the reduced characteristic polynomial."""
        r = self.degree_rank(k)
        reduced = self.reduced_char_poly()
        return abs(reduced[r - k])

    def mu_vector(self) -> Tuple[int, ...]:
        return tuple(self.mu(k) for k in range(self.rank()))

    # -- minors and relatives --------------------------------------------------

    def _relabel_without(self, e: int, masks: Iterable[int]) -> "Matroid":
        """The matroid on n - 1 elements whose bases are the given masks, none
        holding e, with every element above e moved down by one."""
        below = (1 << e) - 1
        return Matroid(
            self.n_elements - 1,
            [_members((b & below) | (b >> 1 & ~below)) for b in masks],
        )

    def delete(self, e: int) -> "Matroid":
        """Deletion; a coloop is dropped from every basis instead."""
        _require_element(e, self.n_elements)
        bit = 1 << e
        if e in self.coloops():
            kept = [b ^ bit for b in self._masks]
        else:
            kept = [b for b in self._masks if not b & bit]
        return self._relabel_without(e, kept)

    def contract(self, e: int) -> "Matroid":
        _require_element(e, self.n_elements)
        if self._loops >> e & 1:
            raise LoopContract(f"element {e} is a loop")
        bit = 1 << e
        return self._relabel_without(e, [b ^ bit for b in self._masks if b & bit])

    def truncate(self) -> "Matroid":
        """Drop the rank by one: bases become the independent sets one smaller."""
        if self.rank() == 0:
            raise ValueError("cannot truncate a rank-0 matroid")
        return Matroid(self.n_elements, map(_members, _one_smaller(self._masks)))

    def dual(self) -> "Matroid":
        full = (1 << self.n_elements) - 1
        return Matroid(self.n_elements, [_members(full ^ b) for b in self._masks])

    # -- chain combinatorics ----------------------------------------------------

    def chains_with_descent_set(self, positions: Iterable[int]) -> int:
        """Count maximal flat chains whose label word descends exactly there.

        Each cover step F < G is labelled min(G - F); position i refers to
        the comparison of labels i and i+1 (1-indexed).  It takes the guard
        of every degree route: the matroid must be loopless of rank >= 1.
        """
        positions = tuple(positions)
        r_top = self.degree_rank(0)
        # type() rather than isinstance(): True is no name for position 1
        if any(type(p) is not int or not 1 <= p <= r_top for p in positions):
            raise KOutOfRange(f"descent positions {list(positions)!r} outside 1..{r_top}")
        wanted = frozenset(positions)
        count = 0
        for chain in self.lattice().maximal_chains():
            if descent_set(jordan_holder_word(chain)) == wanted:
                count += 1
        return count

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n_elements == other.n_elements and self._masks == other._masks

    def __hash__(self):
        return hash((self.n_elements, self._masks))

    def __repr__(self):
        return f"Matroid(n={self.n_elements}, rank={self.rank()}, bases={len(self._masks)})"


def _check_exchange(masks: Tuple[int, ...]) -> Tuple[int, ...]:
    """For every ordered pair of bases B1, B2 and x in B1 - B2, some y in
    B2 - B1 makes B1 - x + y a basis; returns the distinct cocircuits it
    collects, as masks.

    With T = B1 - x, the ys outside B1 that make T + y a basis, together
    with x, are Y_T = {y : T + y is a basis}, which depends on T alone; in a
    matroid it is the cocircuit E - cl(T).  A B2 holding x passes, and a B2
    avoiding x passes iff it holds one of the others, so the pair passes iff
    B2 meets Y_T.  Hence one pass over (basis, x) collects Y_T for every
    (r-1)-set T inside a basis, and the check is that the basis columns of
    each distinct Y_T together cover every basis.  Only when some Y_T fails
    are the pairs rescanned: bases, then x ascending, in the order of the
    given tuple, with the lowest uncovered index as B2, so a sorted tuple
    names a witness that depends only on the set of bases.
    """
    cocircuits: Dict[int, int] = {}
    for b in masks:
        xs = b
        while xs:
            x = xs & -xs
            xs ^= x
            cocircuits[b ^ x] = cocircuits.get(b ^ x, 0) | x
    distinct = tuple(dict.fromkeys(cocircuits.values()))
    columns = _basis_columns(masks, reduce(or_, masks).bit_length())
    every = (1 << len(masks)) - 1
    missed = {}
    for ys in distinct:
        met, rest = 0, ys
        while rest:
            y = rest & -rest
            met |= columns[y.bit_length() - 1]
            rest ^= y
        if met != every:
            missed[ys] = every & ~met
    if not missed:
        return distinct
    for b1 in masks:
        for x in _members(b1):
            uncovered = missed.get(cocircuits[b1 ^ 1 << x])
            if uncovered is not None:
                b2 = masks[(uncovered & -uncovered).bit_length() - 1]
                raise ExchangeViolation(
                    f"no exchange for {x} out of "
                    f"{list(_members(b1))} toward {list(_members(b2))}"
                )


# ---------------------------------------------------------------------------
# Named builtins
# ---------------------------------------------------------------------------


def triangle_with_pendant() -> Matroid:
    """Cycle matroid of a triangle with one pendant edge hanging off it."""
    return Matroid.from_graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])


def complete_graph_k4() -> Matroid:
    """Cycle matroid of K4; edges 0,1,2 form a triangle."""
    return Matroid.from_graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])


BUILTIN_MATROIDS = {
    "fano": Matroid.fano,
    "k4": complete_graph_k4,
    "fig1": triangle_with_pendant,
}


def builtin(name: str) -> Matroid:
    try:
        factory = BUILTIN_MATROIDS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; choose from {sorted(BUILTIN_MATROIDS)}"
        ) from None
    return factory()
