"""Exact arithmetic: lattice indices and rational linear solves.

Everything here is exact.  Rationals are ``fractions.Fraction``, integers are
Python ints, and the lattice index comes from elementary row reductions over
Z (Hermite-style elimination).  Of the four routes only stable calls
``lattice_index``.  No route calls ``solve_linear`` or the Smith form: both
are kept as independent references that the tests check lattice indices,
fan spans and stable points against.  Dimensions in this library stay
below ten, so the classical O(n^3) algorithms with exact pivoting are the
right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import NotFullRank


# ---------------------------------------------------------------------------
# Integer lattices
# ---------------------------------------------------------------------------


def _as_int_rows(vectors: Iterable[Sequence[int]]) -> list[list[int]]:
    rows = []
    for v in vectors:
        row = []
        for x in v:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"lattice vectors must be integral, got {x}")
                x = x.numerator
            row.append(int(x))
        rows.append(row)
    return rows


def hermite_row_reduce(vectors: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    """Row-reduce integer vectors to an upper-echelon form by unimodular ops.

    Returns the nonzero rows with positive pivots, pivot columns strictly
    increasing.  The rows generate the same lattice as the input.
    """
    mat = [r for r in _as_int_rows(vectors) if any(r)]
    for row in mat:
        if len(row) != width:
            raise ValueError("vector width mismatch")
    out: list[list[int]] = []
    top = 0
    for col in range(width):
        # Gather rows still active with a nonzero entry in this column and
        # run the Euclidean algorithm down the column.
        while True:
            candidates = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: abs(mat[i][col]))
            mat[top], mat[i0] = mat[i0], mat[top]
            pivot = mat[top][col]
            done = True
            for i in range(top + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // pivot
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if top < len(mat) and mat[top][col] != 0:
            if mat[top][col] < 0:
                mat[top] = [-a for a in mat[top]]
            out.append(mat[top])
            top += 1
    return out


def lattice_index(generators: Iterable[Sequence[int]], ambient_dim: int) -> int:
    """Index in Z^ambient_dim of the sublattice spanned by the generators.

    Raises NotFullRank when the generators do not span the ambient space.
    """
    echelon = hermite_row_reduce(generators, ambient_dim)
    if len(echelon) < ambient_dim:
        raise NotFullRank(
            f"generators span rank {len(echelon)} < ambient dimension {ambient_dim}"
        )
    index = 1
    for i, row in enumerate(echelon):
        index *= row[i]
    return index


def solve_linear(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Tuple[str, Tuple[Fraction, ...] | None]:
    """Exact Gaussian elimination for A x = rhs over the rationals.

    Returns ("unique", solution), ("inconsistent", None), or
    ("underdetermined", None).  No route calls this; it is the reference
    that the tests hold fan spans and the stable points against.
    """
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    if len(rows) != len(matrix) or len(rows) != len(rhs):
        raise ValueError("matrix/rhs size mismatch")
    n_cols = len(matrix[0]) if matrix else 0
    pivot_of_col: dict[int, int] = {}
    top = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(top, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
        pivot = rows[top][col]
        rows[top] = [x / pivot for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[top])]
        pivot_of_col[col] = top
        top += 1
    for i in range(top, len(rows)):
        if rows[i][-1] != 0:
            return "inconsistent", None
    if len(pivot_of_col) < n_cols:
        return "underdetermined", None
    solution = [Fraction(0)] * n_cols
    for col, row in pivot_of_col.items():
        solution[col] = rows[row][-1]
    return "unique", tuple(solution)


def smith_invariant_factors(rows: Iterable[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    No route calls this; it is a second, independent reduction that the
    tests hold lattice_index against.
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
