"""Chamber sums of piecewise polynomials."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

import matchow.piecewise as piecewise

from matchow import (
    DegeneratePoint,
    KOutOfRange,
    LoopPresent,
    Matroid,
    complete_graph_k4,
    deg_pp,
)
from matchow.cli import main
from matchow.piecewise import chamber_denominator, chambers, generic_point, greedy_basis

from conftest import SUITE_MATROIDS


def test_greedy_basis_examples():
    k4 = complete_graph_k4()
    # 0,1 get picked, 2 closes the triangle and is skipped
    assert greedy_basis(k4, (0, 1, 2, 3, 4, 5)) == frozenset({0, 1, 3})
    assert greedy_basis(Matroid.uniform(2, 4), (3, 2, 1, 0)) == frozenset({2, 3})


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
    with pytest.raises(KOutOfRange, match="k=True outside"):
        deg_pp(b3, True)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        deg_pp(looped, 0)


# ---------------------------------------------------------------------------
# the prefix-set dynamic program behind deg_pp
# ---------------------------------------------------------------------------


def _fraction_chamber_sums(m, seed):
    """The literal n! chamber sum in Fraction, one value per k."""
    n = m.n_elements
    r = m.rank() - 1
    pt = generic_point(n, seed)
    totals = [Fraction(0)] * (r + 1)
    for c in chambers(n):
        outside = Fraction(1)
        for i in set(range(n)) - greedy_basis(m, c):
            outside *= pt[0] - pt[i]
        base = outside / chamber_denominator(c, pt)
        for k in range(r + 1):
            totals[k] += base * (pt[0] - pt[c[-1]]) ** (r - k) * (pt[c[0]] - pt[0]) ** k
    return totals


def test_dp_matches_fraction_chamber_sum(suite_matroid):
    sums = _fraction_chamber_sums(suite_matroid, seed=11)
    assert [deg_pp(suite_matroid, k) for k in range(len(sums))] == sums


def test_dp_matches_fraction_chamber_sum_off_suite(fig1):
    for m in (fig1, Matroid.uniform(2, 5)):
        sums = _fraction_chamber_sums(m, seed=11)
        assert [deg_pp(m, k) for k in range(len(sums))] == sums


def test_rank_table_matches_matroid_rank():
    # a triangle plus a loop at vertex 0
    cases = [Matroid.from_graph([(0, 1), (1, 2), (0, 2), (0, 0)])]
    for m in SUITE_MATROIDS:
        cases += [m, m.dual(), m.delete(0), m.contract(0)]
    for m in cases:
        table = piecewise._rank_table(m)
        assert len(table) == 1 << m.n_elements
        for mask in range(len(table)):
            members = [e for e in m.elements if mask >> e & 1]
            assert table[mask] == m.rank(members), (m, members)


def test_rank_steps_mark_the_elements_outside_the_greedy_basis():
    for m in SUITE_MATROIDS:
        n = m.n_elements
        if n > 6:
            continue
        table = piecewise._rank_table(m)
        for c in chambers(n):
            prefix, skipped = 0, set()
            for e in c:
                if table[prefix | 1 << e] == table[prefix]:
                    skipped.add(e)
                prefix |= 1 << e
            assert skipped == set(range(n)) - greedy_basis(m, c), c


def test_deg_pp_reaches_k5_and_u49():
    k5 = Matroid.from_graph(list(itertools.combinations(range(5), 2)))
    for m in (k5, Matroid.uniform(4, 9)):
        for k in range(m.rank()):
            assert deg_pp(m, k) == m.mu(k)


def test_deg_pp_fano_seed_invariance():
    fano = Matroid.fano()
    for k in range(fano.rank()):
        assert {deg_pp(fano, k, seed=s) for s in range(5)} == {fano.mu(k)}


def test_disagreeing_residues_are_a_cross_assertion(monkeypatch, capsys):
    exact = piecewise._chamber_sum_mod

    def skewed(rank, r, k, point, p):
        value = exact(rank, r, k, point, p)
        return (value + 1) % p if p == piecewise._PRIMES[1] else value

    monkeypatch.setattr(piecewise, "_chamber_sum_mod", skewed)
    with pytest.raises(AssertionError, match="not constant"):
        deg_pp(complete_graph_k4(), 1)
    code = main(["deg", "--builtin", "k4", "--k", "1", "--method", "pp"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal cross-assertion failed")
