"""Lattice utilities and exact linear solves."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from matchow import NotFullRank
from matchow.exact import (
    hermite_row_reduce,
    lattice_index,
    smith_invariant_factors,
    solve_linear,
)


# ---------------------------------------------------------------------------
# lattice_index
# ---------------------------------------------------------------------------


def test_lattice_index_identity():
    assert lattice_index([(1, 0), (0, 1)], 2) == 1


def test_lattice_index_skew_basis():
    assert lattice_index([(1, 0), (1, 2)], 2) == 2


def test_lattice_index_redundant_generators():
    assert lattice_index([(1, 0), (0, 1), (3, 5)], 2) == 1


def test_lattice_index_not_full_rank():
    with pytest.raises(NotFullRank):
        lattice_index([(1, 2)], 2)
    with pytest.raises(NotFullRank):
        lattice_index([(1, 2, 3), (2, 4, 6)], 3)


def test_lattice_index_scaling_one_generator():
    rng = random.Random(7)
    for _ in range(25):
        # random unimodular basis built from elementary row operations
        basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(12):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
        assert lattice_index(basis, 3) == 1
        scale = rng.randint(1, 9)
        scaled = [row[:] for row in basis]
        pick = rng.randrange(3)
        scaled[pick] = [scale * x for x in basis[pick]]
        assert lattice_index(scaled, 3) == scale


def test_hermite_rows_span_same_lattice():
    rows = [(2, 4, 4), (-6, 6, 12), (10, 4, 16)]
    echelon = hermite_row_reduce(rows, 3)
    # every original row must be an integer combination of the echelon rows
    for row in rows:
        status, sol = solve_linear(
            [[Fraction(e[i]) for e in echelon] for i in range(3)],
            [Fraction(x) for x in row],
        )
        assert status == "unique"
        assert all(c.denominator == 1 for c in sol)


def test_smith_invariant_factors_divide_and_match_index():
    rng = random.Random(11)
    assert smith_invariant_factors([(2, 0), (0, 3)]) == [1, 6]
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        factors = smith_invariant_factors(rows)
        for d1, d2 in zip(factors, factors[1:]):
            assert d2 % d1 == 0
        if len(factors) == n:
            # full rank: the sublattice index equals the product of factors
            prod = 1
            for d in factors:
                prod *= d
            assert lattice_index(rows, n) == prod
        else:
            with pytest.raises(NotFullRank):
                lattice_index(rows, n)


# ---------------------------------------------------------------------------
# solve_linear
# ---------------------------------------------------------------------------


def test_solve_linear_unique():
    status, sol = solve_linear(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
        [Fraction(3), Fraction(1)],
    )
    assert status == "unique"
    assert sol == (Fraction(2), Fraction(1))


def test_solve_linear_inconsistent_and_underdetermined():
    one = Fraction(1)
    status, _ = solve_linear([[one, one], [one, one]], [one, Fraction(2)])
    assert status == "inconsistent"
    status, _ = solve_linear([[one, one], [Fraction(2), Fraction(2)]], [one, Fraction(2)])
    assert status == "underdetermined"
