"""References that no route calls, kept beside the tests that use them.

`smith_invariant_factors` is a second integer reduction that the tests
hold `exact.lattice_index` against.  `chambers` and `greedy_basis` spell
out the n! chamber sum of `piecewise.deg_pp` in `Fraction`, together with
`piecewise.chamber_denominator` and `piecewise.generic_point`.
`lex_reference_flags` lists the complete flags that `chowlex.deg_lex`
counts: it expands beta^k alpha^(r-k) from the empty flag on frozenset
flag monomials, testing every monomial of a layer against every proper
flat.  `lex_expand_alpha` and `lex_expand_beta` take one expansion step of
the same expansion through `chowlex._FlatColumns`' candidate sets.
`subset_sum_char_poly` is the signed sum over all of 2^E that the
no-broken-circuit sum of `Matroid.char_poly` is held against, and
`graph_bases_by_combinations` the scan of every r-subset of the edges that
`Matroid.from_graph`'s include/exclude walk is held against.
`maximal_chains`, `jordan_holder_word` and `descent_set` walk every maximal
chain of flats and read its label word, the walk that the count over
labelled covers of `Matroid.chains_with_descent_set` is held against.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

from matchow import Matroid
from matchow.chowlex import _FlatColumns
from matchow.exact import _as_int_rows
from matchow.matroid import Chain, FlatLattice, _members, _one_smaller, _subset_mask

FlagMonomial = Tuple[FrozenSet[int], ...]


def chambers(n_elements: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n_elements)))


def greedy_basis(m: Matroid, order: Sequence[int]) -> frozenset:
    """First basis in the greedy scan of the given element order."""
    chosen: set = set()
    for e in order:
        if m.rank(chosen | {e}) > len(chosen):
            chosen.add(e)
    return frozenset(chosen)


def smith_invariant_factors(rows: Iterable[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    A second reduction, independent of the Hermite elimination, that
    lattice_index is held against.
    """
    mat = _as_int_rows(rows)
    if not mat:
        return []
    m, n = len(mat), len(mat[0])
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        # Find a nonzero entry in the working submatrix.
        pos = [(i, j) for i in range(t, m) for j in range(t, n) if mat[i][j] != 0]
        if not pos:
            break
        i0, j0 = min(pos, key=lambda p: abs(mat[p[0]][p[1]]))
        mat[t], mat[i0] = mat[i0], mat[t]
        for row in mat:
            row[t], row[j0] = row[j0], row[t]
        # Clear row and column t; restart whenever a remainder survives.
        clean = True
        for i in range(t + 1, m):
            if mat[i][t] != 0:
                q = mat[i][t] // mat[t][t]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[t])]
                if mat[i][t] != 0:
                    clean = False
        for j in range(t + 1, n):
            if mat[t][j] != 0:
                q = mat[t][j] // mat[t][t]
                for row in mat:
                    row[j] -= q * row[t]
                if mat[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        pivot = abs(mat[t][t])
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if mat[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]
            continue
        factors.append(pivot)
        t += 1
    return factors


def _view(mask: int) -> FrozenSet[int]:
    return frozenset(_members(mask))


def lex_reference_flags(m: Matroid, k: int) -> list[FlagMonomial]:
    """The frozenset all-flats scan: every monomial of a layer is tested
    against every proper flat, in the lattice's order."""
    flats = [_view(f) for f in m.lattice().proper_nonempty_flats()]
    layer: list[FlagMonomial] = [()]
    for _ in range(k):
        grown = []
        for mono in layer:
            bottom = mono[0] if mono else frozenset(m.elements)
            allowed = bottom - {min(bottom)}
            grown += [(flat,) + mono for flat in flats if flat <= allowed]
        layer = grown
    for _ in range(m.rank() - 1 - k):
        grown = []
        for mono in layer:
            top = mono[-1] if mono else frozenset()
            needed = top | {next(e for e in m.elements if e not in top)}
            grown += [mono + (flat,) for flat in flats if needed <= flat]
        layer = grown
    return layer


def lex_expand_alpha(m: Matroid, mono: FlagMonomial) -> list[FlagMonomial]:
    """Append one flat: candidates contain top(mono) plus its least absentee."""
    columns = _FlatColumns(m)
    top = _subset_mask(m.n_elements, mono[-1]) if mono else 0
    return [mono + (_view(flat),) for flat in columns.above(top)]


def lex_expand_beta(m: Matroid, mono: FlagMonomial) -> list[FlagMonomial]:
    """Prepend one flat: candidates avoid the least element of bottom(mono)."""
    columns = _FlatColumns(m)
    bottom = _subset_mask(m.n_elements, mono[0]) if mono else columns.full
    return [(_view(flat),) + mono for flat in columns.below(bottom)]


def subset_sum_char_poly(m: Matroid) -> tuple[int, ...]:
    """chi(q) as the sum of (-1)^|S| q^(r - rank S) over every subset S.

    The walk decides element 0, 1, ... in turn, depth-first, and carries a
    greedy maximal independent subset of the chosen elements (independent:
    inside some basis); its size is the subset's rank because the bases
    passed the exchange check."""
    full_rank = m.rank()
    coeffs = [0] * (full_rank + 1)
    independent = set(m._masks)
    layer = independent
    while layer:
        layer = _one_smaller(layer)
        independent |= layer

    def walk(e: int, greedy: int, sign: int) -> None:
        if e == m.n_elements:
            coeffs[full_rank - greedy.bit_count()] += sign
            return
        walk(e + 1, greedy, sign)
        grown = greedy | 1 << e
        walk(e + 1, grown if grown in independent else greedy, -sign)

    walk(0, 0, 1)
    return tuple(coeffs)


def graph_bases_by_combinations(edges: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """The spanning forests of a multigraph: every r-subset of the edge
    indices that a fresh union-find finds acyclic, r the rank of all edges."""
    index = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}, key=repr))}

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
    return [
        subset
        for subset in itertools.combinations(range(len(edges)), full_rank)
        if forest_rank(subset) == full_rank
    ]


def maximal_chains(lat: FlatLattice) -> Iterator[Chain]:
    """All chains bottom = F_0 < F_1 < ... < F_rank = top."""
    return lat.chains(0, len(lat.flats_by_rank) - 1)


def jordan_holder_word(chain: Chain) -> tuple[int, ...]:
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
