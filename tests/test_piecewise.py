"""Chamber sums of piecewise polynomials."""

from __future__ import annotations

from fractions import Fraction

import pytest

from matchow import (
    DegeneratePoint,
    KOutOfRange,
    LoopPresent,
    Matroid,
    MultiPoly,
    chambers,
    complete_graph_k4,
    deg_pp,
    rep_alpha,
    rep_beta,
)
from matchow.piecewise import chamber_denominator, generic_point, greedy_basis


def _difference(n, i, j):
    return MultiPoly.variable(n, i) - MultiPoly.variable(n, j)


def test_greedy_basis_examples():
    k4 = complete_graph_k4()
    # 0,1 get picked, 2 closes the triangle and is skipped
    assert greedy_basis(k4, (0, 1, 2, 3, 4, 5)) == frozenset({0, 1, 3})
    assert greedy_basis(Matroid.uniform(2, 4), (3, 2, 1, 0)) == frozenset({2, 3})


def test_rep_alpha_beta_chamber_polynomials():
    alpha = rep_alpha(3)
    assert alpha.parts[(0, 1, 2)] == _difference(3, 0, 2)
    assert alpha.parts[(1, 2, 0)] == MultiPoly(3)
    beta = rep_beta(3)
    assert beta.parts[(0, 1, 2)] == MultiPoly(3)
    assert beta.parts[(1, 0, 2)] == _difference(3, 1, 0)


def test_chamber_denominator_degenerate():
    with pytest.raises(DegeneratePoint):
        chamber_denominator((0, 1, 2), (Fraction(1), Fraction(1), Fraction(0)))
    assert chamber_denominator((0, 1, 2), (Fraction(3), Fraction(1), Fraction(0))) == 2


def test_generic_point_deterministic_and_distinct():
    p1 = generic_point(5, 42)
    p2 = generic_point(5, 42)
    assert p1 == p2
    assert len(set(p1)) == 5
    assert p1 != generic_point(5, 43)


def test_constant_chamber_sum_vanishes():
    # sum over chambers of 1/denominator is identically zero for n >= 2
    for n in (2, 3, 4):
        pt = generic_point(n, 7)
        assert sum(Fraction(5) / chamber_denominator(c, pt) for c in chambers(n)) == 0


def test_single_chamber_flag_monomial_has_degree_one():
    # the full product of consecutive differences on one chamber cancels the
    # denominator exactly; every other chamber carries zero
    for n in (3, 4):
        for seed in (1, 2, 3):
            pt = generic_point(n, seed)
            for c in chambers(n):
                numerator = Fraction(1)
                for a, b in zip(c, c[1:]):
                    numerator *= pt[a] - pt[b]
                assert numerator / chamber_denominator(c, pt) == 1


def test_reference_element_does_not_change_degree():
    # the chamber sum built from reference element 1 differs chamber by
    # chamber from deg_pp's (reference element 0) but sums to the same degree
    for m in (Matroid.uniform(2, 3), Matroid.boolean(3)):
        n = m.n_elements
        r = m.rank() - 1
        pt = generic_point(n, 19)
        for k in range(r + 1):
            total = Fraction(0)
            for c in chambers(n):
                num = (pt[1] - pt[c[-1]]) ** (r - k) * (pt[c[0]] - pt[1]) ** k
                for i in set(range(n)) - greedy_basis(m, c):
                    num *= pt[1] - pt[i]
                total += num / chamber_denominator(c, pt)
            assert total == m.mu(k)


def test_deg_pp_matches_mu(suite_matroid, fig1):
    for m in (suite_matroid, fig1):
        for k in range(m.rank()):
            assert deg_pp(m, k) == m.mu(k)


def test_deg_pp_seed_invariance():
    m = complete_graph_k4()
    assert deg_pp(m, 1, seed=0) == deg_pp(m, 1, seed=1) == deg_pp(m, 1, seed=2) == 5


def test_deg_pp_guards():
    b3 = Matroid.boolean(3)
    with pytest.raises(KOutOfRange):
        deg_pp(b3, 5)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        deg_pp(looped, 0)
