"""Exact arithmetic: lattice indices and rational linear solves.

Everything here is exact.  Rationals are ``fractions.Fraction``, integers are
Python ints, and the lattice index comes from elementary row reductions over
Z (Hermite-style elimination) of vectors whose entries are ints: a float,
a bool or a Fraction raises ValueError.  Of the four routes only stable
calls ``lattice_index``.  No route calls ``solve_linear``: it is the
independent reference that the tests check fan spans and stable points
against, and it stays here because ``bench/spans.py`` wraps it where stable
imports it.
The tests hold ``lattice_index`` against a Smith form of their own.
Dimensions in this library stay below ten, so the classical O(n^3)
algorithms with exact pivoting are the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import NotFullRank


# ---------------------------------------------------------------------------
# Integer lattices
# ---------------------------------------------------------------------------


def _as_int_rows(vectors: Iterable[Sequence[int]]) -> list[list[int]]:
    """The vectors as lists; raises ValueError on an entry that is not an int
    (bools, floats and Fractions included)."""
    rows = [list(v) for v in vectors]
    for row in rows:
        for x in row:
            if type(x) is not int:
                raise ValueError(f"lattice vectors must have int entries, got {x!r}")
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
