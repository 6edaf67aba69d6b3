"""Matroids given by their bases, with the lattice-of-flats combinatorics.

A matroid lives on the ground set {0, ..., n_elements-1} with the natural
order.  Everything downstream (flags, fans, Chow classes) keys off this
fixed order, so minors relabel their ground sets back to an initial segment,
preserving relative order.

Inside this module a subset of the ground set is an int mask with bit e set
for element e: bases, rank queries, closures and flats are mask operations.
Frozensets appear only at the edge: `Matroid.bases`, `closure`, `loops`,
`coloops` and the views of `FlatLattice`; `rank` and `closure` accept any
iterable of elements.  Every construction, the named constructors, minors,
duals and truncations included, runs the full basis-exchange check.

The bases are also held transposed, as bit-sliced columns: column e is an
int over basis indices with bit i set iff the i-th basis holds e.  A set of
bases is then one int, and "the bases holding e", "the bases meeting S in j
or more elements" and "the elements some chosen basis holds" are a few
whole-int operations instead of a loop over the bases.

The exchange check groups the pairs (B1, x) by T = B1 - x.  The ys with
T + y a basis form a set Y_T that holds x and depends on T alone (in a
matroid it is the cocircuit E - cl(T)), and B1 - x + y is a basis for some
y in B2 - B1 exactly when B2 meets Y_T.  So each (r-1)-set T inside a basis
costs one test: the columns of Y_T together must cover every basis.

The characteristic polynomial is always computed twice, by the subset
inclusion-exclusion sum and by the Moebius sum over the lattice of flats,
and the two are asserted equal; callers therefore get a value that has
already survived one independent cross-check.  The subset sum takes each
subset's rank from a greedy independent subset grown along a depth-first
walk of 2^E, not from the basis columns the lattice is built with, so the
two sums share no rank code.
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
Chain = Tuple[Flat, ...]


def _mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


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


def _basis_columns(masks: Sequence[int], n_elements: int) -> list[int]:
    """The bases transposed: bit i of column e is set iff masks[i] holds e."""
    rows = [bytearray((len(masks) + 7) >> 3) for _ in range(n_elements)]
    for i, b in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        while b:
            low = b & -b
            rows[low.bit_length() - 1][byte] |= bit
            b ^= low
    return [int.from_bytes(row, "little") for row in rows]


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

    Built on masks.  The covers of a flat F are the closures of F + e for e
    outside F; each cover holds every e that generates it, so one closure
    per cover finds them all.  The bases meeting F + e in rank(F) + 1
    elements are the bases meeting F in rank(F) elements that hold e, so
    they are one AND of F's tight bases with e's column, and the cover is
    F + e plus every element that none of them holds.  For a hyperplane
    cover cl(T), with T an (r-1)-set inside a basis, the elements left out
    are the cocircuit Y_T = {y : T + y is a basis} whose columns the
    exchange check ORs together.  Moebius values are accumulated bottom-up
    from mu(bottom) = 1 and sum_{G <= F} mu(G) = 0 for F above the bottom,
    where the flats below F are gathered along the cover relation, not by
    testing every earlier flat.  The public views are frozensets, and each
    level is sorted by its flats' sorted element tuples, the order that
    flags, cones and the lex expansion follow.  The masks of the proper
    flats are kept in that order too, for the mask kernels of lex and the
    fans.
    """

    def __init__(self, matroid: "Matroid"):
        self.matroid = matroid
        columns = matroid._columns
        full = (1 << matroid.n_elements) - 1
        levels = [[matroid._closure_mask(0)]]
        covers: Dict[int, list[int]] = {}
        for _ in range(matroid.rank()):
            fresh = set()
            for f in levels[-1]:
                above = covers[f] = []
                tight = matroid._tight_bases(f)
                rest = full & ~f
                while rest:
                    e = rest & -rest
                    reach = matroid._held(tight & columns[e.bit_length() - 1])
                    g = (f | e | ~reach) & full
                    rest &= ~g
                    above.append(g)
                fresh.update(above)
            levels.append(sorted(fresh, key=_members))

        index = {f: i for i, f in enumerate(f for level in levels for f in level)}
        below = dict.fromkeys(index, 0)  # the flats under each flat, by index
        for f, above in covers.items():
            under = below[f] | 1 << index[f]
            for g in above:
                below[g] |= under
        mus: list[int] = []
        for f in index:
            mus.append(-sum(mus[i] for i in _members(below[f])) if below[f] else 1)

        view = {f: frozenset(_members(f)) for f in index}
        self.flats_by_rank: Tuple[Tuple[Flat, ...], ...] = tuple(
            tuple(view[f] for f in level) for level in levels
        )
        self.bottom: Flat = self.flats_by_rank[0][0]
        self.top: Flat = self.flats_by_rank[-1][0]
        self.flat_rank: Dict[Flat, int] = {
            f: rk for rk, level in enumerate(self.flats_by_rank) for f in level
        }
        self._covers_above: Dict[Flat, Tuple[Flat, ...]] = {
            view[f]: tuple(view[g] for g in sorted(above, key=index.__getitem__))
            for f, above in covers.items()
        }
        self.mobius: Dict[Flat, int] = {view[f]: mu for f, mu in zip(index, mus)}
        self._proper: Tuple[Flat, ...] = tuple(
            f for level in self.flats_by_rank[1:-1] for f in level
        )
        self._proper_masks: Tuple[int, ...] = tuple(
            f for level in levels[1:-1] for f in level
        )

    def flats(self) -> Iterator[Flat]:
        for level in self.flats_by_rank:
            yield from level

    def proper_nonempty_flats(self) -> Tuple[Flat, ...]:
        """Flats other than the bottom and the full ground set, by rank."""
        return self._proper

    def proper_nonempty_masks(self) -> Tuple[int, ...]:
        """The int masks of `proper_nonempty_flats()`, in the same order."""
        return self._proper_masks

    def covers_above(self, flat: Flat) -> Tuple[Flat, ...]:
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
    """Minimal new element along each cover step of a maximal chain."""
    return tuple(
        min(chain[i] - chain[i - 1]) for i in range(1, len(chain))
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
    `bases` is the frozenset view of the masks, and `_columns` their
    transpose over basis indices (see the module docstring).
    """

    __slots__ = ("n_elements", "_masks", "_columns", "_lattice", "_char_poly")

    def __init__(self, n_elements: int, bases: Iterable[Iterable[int]]):
        if type(n_elements) is not int:
            raise ValueError(f"n_elements={n_elements!r} is not an integer")
        if n_elements < 0:
            raise ValueError(f"n_elements={n_elements} is negative")
        masks = []
        for b in bases:
            b = tuple(b)
            for e in b:
                _require_element(e, n_elements)
            mask = _mask(b)
            if mask.bit_count() != len(b):
                raise ValueError(f"basis {list(b)} lists an element twice")
            masks.append(mask)
        if not masks:
            raise EmptyBases("a matroid needs at least one basis")
        sizes = {mask.bit_count() for mask in masks}
        if len(sizes) != 1:
            raise ExchangeViolation(f"bases of unequal size: {sorted(sizes)}")
        self._masks: Tuple[int, ...] = tuple(sorted(set(masks)))
        columns = _check_exchange(self._masks)
        self.n_elements = n_elements
        # elements that no basis holds (loops) get empty columns
        self._columns = columns + [0] * (n_elements - len(columns))
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

        def forest_rank(subset: Iterable[int]) -> int:
            parent = list(range(len(index)))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            rank = 0
            for i in subset:
                u, v = (find(index[w]) for w in edges[i])
                if u != v:
                    parent[u] = v
                    rank += 1
            return rank

        full_rank = forest_rank(range(len(edges)))
        bases = [
            subset
            for subset in itertools.combinations(range(len(edges)), full_rank)
            if forest_rank(subset) == full_rank
        ]
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
        key = self._subset_mask(subset)
        return max((key & b).bit_count() for b in self._masks)

    def closure(self, subset: Iterable[int]) -> Flat:
        return frozenset(_members(self._closure_mask(self._subset_mask(subset))))

    def _subset_mask(self, subset: Iterable[int]) -> int:
        subset = tuple(subset)
        for e in subset:
            _require_element(e, self.n_elements)
        return _mask(subset)

    def _tight_bases(self, subset: int) -> int:
        """The bases meeting the subset in rank(subset) elements, as a bitmap
        over basis indices.

        at_least[j] holds the bases meeting the elements read so far in j or
        more of them; reading e adds the bases of at_least[j - 1] that hold
        e to at_least[j].  The highest nonempty level is the answer."""
        at_least = [(1 << len(self._masks)) - 1]
        for e in _members(subset):
            column = self._columns[e]
            top = at_least[-1] & column
            for j in range(len(at_least) - 1, 0, -1):
                at_least[j] |= at_least[j - 1] & column
            if top:
                at_least.append(top)
        return at_least[-1]

    def _held(self, chosen: int) -> int:
        """The elements held by some basis of a bitmap over basis indices:
        those whose column meets it."""
        held = 0
        for e, column in enumerate(self._columns):
            if column & chosen:
                held |= 1 << e
        return held

    def _closure_mask(self, subset: int) -> int:
        """An element e outside S is in the closure of S unless some basis
        meeting S in rank(S) elements holds e: that basis meets S + e in one
        more."""
        reach = self._held(self._tight_bases(subset))
        return (subset | ~reach) & ((1 << self.n_elements) - 1)

    def loops(self) -> Flat:
        return self.closure(())

    def is_loopless(self) -> bool:
        return not self._closure_mask(0)

    def coloops(self) -> Flat:
        return frozenset(_members(reduce(and_, self._masks)))

    def lattice(self) -> FlatLattice:
        if self._lattice is None:
            self._lattice = FlatLattice(self)
        return self._lattice

    # -- characteristic polynomial -------------------------------------------

    def char_poly(self) -> Tuple[int, ...]:
        """Coefficients of chi(q), ascending in the power of q.

        Computed by the signed subset sum over all of 2^E; when the matroid
        is loopless the Moebius sum over flats is computed as well and the
        two are asserted identical.  The first call stores the result.

        The subset sum walks 2^E depth-first, deciding element 0, 1, ... in
        turn, and carries a greedy maximal independent subset of the chosen
        elements (independent: inside some basis); its size is the subset's
        rank because the bases passed the exchange check.
        """
        if self._char_poly is not None:
            return self._char_poly
        full_rank = self.rank()
        coeffs = [0] * (full_rank + 1)
        independent = set(self._masks)
        layer = independent
        while layer:
            layer = _one_smaller(layer)
            independent |= layer

        def walk(e: int, greedy: int, sign: int) -> None:
            if e == self.n_elements:
                coeffs[full_rank - greedy.bit_count()] += sign
                return
            walk(e + 1, greedy, sign)
            grown = greedy | 1 << e
            walk(e + 1, grown if grown in independent else greedy, -sign)

        walk(0, 0, 1)
        if self.is_loopless():
            lat = self.lattice()
            via_mobius = [0] * (full_rank + 1)
            for flat, mu in lat.mobius.items():
                via_mobius[full_rank - lat.flat_rank[flat]] += mu
            if via_mobius != coeffs:
                raise AssertionError(
                    "subset-sum and Moebius characteristic polynomials disagree"
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
        if e in self.loops():
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
        the comparison of labels i and i+1 (1-indexed).
        """
        positions = tuple(positions)
        r_top = self.rank() - 1
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


def _check_exchange(masks: Tuple[int, ...]) -> list[int]:
    """For every ordered pair of bases B1, B2 and x in B1 - B2, some y in
    B2 - B1 makes B1 - x + y a basis; returns the basis columns it builds,
    one per element up to the highest element some basis holds.

    With T = B1 - x, the ys outside B1 that make T + y a basis, together
    with x, are Y_T = {y : T + y is a basis}, which depends on T alone; in a
    matroid it is the cocircuit E - cl(T).  A B2 holding x passes, and a B2 avoiding x passes
    iff it holds one of the others, so the pair passes iff B2 meets Y_T.
    Hence one pass over (basis, x) collects Y_T for every (r-1)-set T inside
    a basis, and the check is that the columns of Y_T together cover every
    basis.  Only when some T fails are the pairs rescanned: bases, then x
    ascending, in the order of the given tuple, with the lowest uncovered
    index as B2, so a sorted tuple names a witness that depends only on the
    set of bases.
    """
    cocircuits: Dict[int, int] = {}
    for b in masks:
        xs = b
        while xs:
            x = xs & -xs
            xs ^= x
            cocircuits[b ^ x] = cocircuits.get(b ^ x, 0) | x
    columns = _basis_columns(masks, reduce(or_, masks).bit_length())
    every = (1 << len(masks)) - 1
    missed = {}
    for t, ys in cocircuits.items():
        met = reduce(or_, map(columns.__getitem__, _members(ys)))
        if met != every:
            missed[t] = every & ~met
    if not missed:
        return columns
    for b1 in masks:
        for x in _members(b1):
            uncovered = missed.get(b1 ^ 1 << x)
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
