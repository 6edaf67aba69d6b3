"""Matroids given by their bases, with the lattice-of-flats combinatorics.

A matroid lives on the ground set {0, ..., n_elements-1} with the natural
order.  Everything downstream (flags, fans, Chow classes) keys off this
fixed order, so minors relabel their ground sets back to an initial segment,
preserving relative order.

The characteristic polynomial is always computed twice, by the subset
inclusion-exclusion sum and by the Moebius sum over the lattice of flats,
and the two are asserted equal; callers therefore get a value that has
already survived one independent cross-check.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, Sequence, Tuple

from .errors import (
    EmptyBases,
    ExchangeViolation,
    KOutOfRange,
    LoopContract,
    LoopPresent,
)

Flat = FrozenSet[int]
Chain = Tuple[Flat, ...]


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

    Covers are exactly the inclusions that raise rank by one.  Moebius
    values are accumulated bottom-up from mu(bottom) = 1 and
    sum_{G <= F} mu(G) = 0 for F above the bottom.
    """

    def __init__(self, matroid: "Matroid"):
        self.matroid = matroid
        by_rank: list[list[Flat]] = [[matroid.closure(frozenset())]]
        seen = {by_rank[0][0]}
        full = frozenset(range(matroid.n_elements))
        for rk in range(1, matroid.rank() + 1):
            fresh = set()
            for flat in by_rank[rk - 1]:
                for e in full - flat:
                    fresh.add(matroid.closure(flat | {e}))
            level = sorted(fresh - seen, key=lambda f: tuple(sorted(f)))
            seen.update(fresh)
            by_rank.append(level)
        self.flats_by_rank: Tuple[Tuple[Flat, ...], ...] = tuple(
            tuple(level) for level in by_rank
        )
        self.bottom: Flat = self.flats_by_rank[0][0]
        self.top: Flat = self.flats_by_rank[-1][0]
        self.flat_rank: Dict[Flat, int] = {
            f: rk for rk, level in enumerate(self.flats_by_rank) for f in level
        }
        self._covers_above: Dict[Flat, Tuple[Flat, ...]] = {
            f: tuple(
                g
                for g in self.flats_by_rank[rk + 1]
                if f < g
            )
            for rk, level in enumerate(self.flats_by_rank[:-1])
            for f in level
        }
        self.mobius: Dict[Flat, int] = {}
        for level in self.flats_by_rank:
            for f in level:
                below = sum(
                    self.mobius[g] for g in self.mobius if g < f
                )
                self.mobius[f] = 1 if f == self.bottom else -below

    def flats(self) -> Iterator[Flat]:
        for level in self.flats_by_rank:
            yield from level

    def proper_nonempty_flats(self) -> Iterator[Flat]:
        """Flats other than the bottom and the full ground set."""
        for level in self.flats_by_rank[1:-1]:
            yield from level

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
    """A matroid on {0..n-1}, stored as its set of bases.

    Instances are immutable after construction; minors and duals return new
    objects.  The basis-exchange axiom is verified on construction.
    """

    __slots__ = ("n_elements", "bases", "_rank_cache", "_lattice", "_char_poly")

    def __init__(self, n_elements: int, bases: Iterable[Iterable[int]]):
        if n_elements < 0:
            raise ValueError(f"n_elements={n_elements} is negative")
        basis_list = [tuple(b) for b in bases]
        for b in basis_list:
            for e in b:
                # bool is an int subclass, but True is no name for element 1
                if isinstance(e, bool) or not isinstance(e, int):
                    raise ValueError(f"element {e!r} is not an integer")
                if not 0 <= e < n_elements:
                    raise ValueError(f"element {e!r} outside 0..{n_elements - 1}")
            if len(set(b)) != len(b):
                raise ValueError(f"basis {list(b)} lists an element twice")
        basis_set = frozenset(frozenset(b) for b in basis_list)
        if not basis_set:
            raise EmptyBases("a matroid needs at least one basis")
        sizes = {len(b) for b in basis_set}
        if len(sizes) != 1:
            raise ExchangeViolation(f"bases of unequal size: {sorted(sizes)}")
        _check_exchange(basis_set)
        self.n_elements = n_elements
        self.bases = basis_set
        self._rank_cache: Dict[Flat, int] = {}
        self._lattice: FlatLattice | None = None
        self._char_poly: Tuple[int, ...] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, rank: int, n_elements: int) -> "Matroid":
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

    def rank(self, subset: Iterable[int] | None = None) -> int:
        if subset is None:
            return len(next(iter(self.bases)))
        key = frozenset(subset)
        cached = self._rank_cache.get(key)
        if cached is None:
            cached = max(len(key & b) for b in self.bases)
            self._rank_cache[key] = cached
        return cached

    def closure(self, subset: Iterable[int]) -> Flat:
        subset = frozenset(subset)
        rk = self.rank(subset)
        return frozenset(
            e for e in self.elements if self.rank(subset | {e}) == rk
        )

    def loops(self) -> Flat:
        return self.closure(frozenset())

    def is_loopless(self) -> bool:
        return not self.loops()

    def coloops(self) -> Flat:
        return frozenset.intersection(*self.bases)

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
        """
        if self._char_poly is not None:
            return self._char_poly
        full_rank = self.rank()
        coeffs = [0] * (full_rank + 1)
        for size in range(self.n_elements + 1):
            sign = -1 if size % 2 else 1
            for subset in itertools.combinations(self.elements, size):
                coeffs[full_rank - self.rank(subset)] += sign
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
        if not (0 <= k <= r):
            raise KOutOfRange(f"k={k} outside 0..{r}")
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

    def _relabel_without(self, e: int, bases: Iterable[Flat]) -> "Matroid":
        order = [x for x in self.elements if x != e]
        new_label = {x: i for i, x in enumerate(order)}
        return Matroid(
            self.n_elements - 1,
            [[new_label[x] for x in b] for b in bases],
        )

    def delete(self, e: int) -> "Matroid":
        """Deletion; a coloop is dropped from every basis instead."""
        if e in self.coloops():
            kept = [b - {e} for b in self.bases]
        else:
            kept = [b for b in self.bases if e not in b]
        return self._relabel_without(e, kept)

    def contract(self, e: int) -> "Matroid":
        if e in self.loops():
            raise LoopContract(f"element {e} is a loop")
        return self._relabel_without(e, [b - {e} for b in self.bases if e in b])

    def truncate(self) -> "Matroid":
        """Drop the rank by one: bases become the independent sets one smaller."""
        rk = self.rank()
        if rk == 0:
            raise ValueError("cannot truncate a rank-0 matroid")
        return Matroid(
            self.n_elements,
            {frozenset(c) for b in self.bases for c in itertools.combinations(sorted(b), rk - 1)},
        )

    def dual(self) -> "Matroid":
        full = frozenset(self.elements)
        return Matroid(self.n_elements, [full - b for b in self.bases])

    # -- chain combinatorics ----------------------------------------------------

    def chains_with_descent_set(self, positions: Iterable[int]) -> int:
        """Count maximal flat chains whose label word descends exactly there.

        Each cover step F < G is labelled min(G - F); position i refers to
        the comparison of labels i and i+1 (1-indexed).
        """
        wanted = frozenset(positions)
        r_top = self.rank() - 1
        if any(not (1 <= p <= r_top) for p in wanted):
            raise KOutOfRange(f"descent positions {sorted(wanted)} outside 1..{r_top}")
        count = 0
        for chain in self.lattice().maximal_chains():
            if descent_set(jordan_holder_word(chain)) == wanted:
                count += 1
        return count

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n_elements == other.n_elements and self.bases == other.bases

    def __hash__(self):
        return hash((self.n_elements, self.bases))

    def __repr__(self):
        return f"Matroid(n={self.n_elements}, rank={self.rank()}, bases={len(self.bases)})"


def _check_exchange(bases: FrozenSet[Flat]) -> None:
    for b1 in bases:
        for b2 in bases:
            if b1 == b2:
                continue
            for x in b1 - b2:
                trimmed = b1 - {x}
                if not any(trimmed | {y} in bases for y in b2 - b1):
                    raise ExchangeViolation(
                        f"no exchange for {x} out of {sorted(b1)} toward {sorted(b2)}"
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
