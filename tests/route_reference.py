"""References that no route calls, kept beside the tests that use them.

`smith_invariant_factors` is a second integer reduction that the tests
hold `exact.lattice_index` against.  `chambers` and `greedy_basis` spell
out the n! chamber sum of `piecewise.deg_pp` in `Fraction`, together with
`piecewise.chamber_denominator` and `piecewise.generic_point`.
`lex_expand_alpha` and `lex_expand_beta` take one expansion step of
`chowlex.surviving_flags` on a frozenset flag monomial.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from matchow import Matroid
from matchow.chowlex import FlagMonomial, _FlatColumns, _view
from matchow.exact import _as_int_rows
from matchow.matroid import _subset_mask


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


def lex_expand_alpha(m: Matroid, mono: FlagMonomial) -> list[FlagMonomial]:
    """Append one flat: candidates contain top(mono) plus its least absentee."""
    columns = _FlatColumns(m)
    top = _subset_mask(m.n_elements, mono[-1]) if mono else 0
    return [mono + (_view(columns.masks[i]),) for i in columns.above(top)]


def lex_expand_beta(m: Matroid, mono: FlagMonomial) -> list[FlagMonomial]:
    """Prepend one flat: candidates avoid the least element of bottom(mono)."""
    columns = _FlatColumns(m)
    bottom = _subset_mask(m.n_elements, mono[0]) if mono else columns.full
    return [(_view(columns.masks[i]),) + mono for i in columns.below(bottom)]
