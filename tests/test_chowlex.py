"""Lexicographic flag-monomial expansion."""

from __future__ import annotations

import pytest

from matchow import KOutOfRange, LoopPresent, Matroid, deg_lex
from matchow.chowlex import lex_expand_alpha, lex_expand_beta, surviving_flags
from matchow.matroid import descent_set, jordan_holder_word

fs = frozenset


def test_alpha_expansion_from_empty():
    b3 = Matroid.boolean(3)
    # least absentee of the empty flag is 0; candidates are flats containing it
    assert lex_expand_alpha(b3, ()) == [
        (fs({0}),),
        (fs({0, 1}),),
        (fs({0, 2}),),
    ]


def test_beta_expansion_from_empty():
    b3 = Matroid.boolean(3)
    # bottom of the empty flag is the whole ground set, so 0 is excluded
    assert lex_expand_beta(b3, ()) == [
        (fs({1}),),
        (fs({2}),),
        (fs({1, 2}),),
    ]


def test_alpha_expansion_grows_top():
    b3 = Matroid.boolean(3)
    # top is {1}; the least absentee is 0, so the new flat must hold {0,1}
    assert lex_expand_alpha(b3, ((fs({1}),))) == [(fs({1}), fs({0, 1}))]


def test_beta_expansion_shrinks_bottom():
    b3 = Matroid.boolean(3)
    assert lex_expand_beta(b3, ((fs({1, 2}),))) == [(fs({2}), fs({1, 2}))]
    # bottom {2} excludes its own minimum, leaving no candidate flats
    assert lex_expand_beta(b3, ((fs({2}),))) == []


def test_surviving_flags_boolean3():
    b3 = Matroid.boolean(3)
    assert surviving_flags(b3, 0) == [(fs({0}), fs({0, 1}))]
    assert sorted(surviving_flags(b3, 1), key=str) == sorted(
        [(fs({1}), fs({0, 1})), (fs({2}), fs({0, 2}))], key=str
    )
    assert surviving_flags(b3, 2) == [(fs({2}), fs({1, 2}))]


def test_surviving_flags_are_distinct(suite_matroid):
    for k in range(suite_matroid.rank()):
        flags = surviving_flags(suite_matroid, k)
        assert len(flags) == len(set(flags))


def _descent_chain_flags(m: Matroid, k: int) -> set:
    """Oracle: proper parts of maximal chains descending exactly at 1..k."""
    wanted = frozenset(range(1, k + 1))
    out = set()
    for chain in m.lattice().maximal_chains():
        if descent_set(jordan_holder_word(chain)) == wanted:
            out.add(chain[1:-1])
    return out


def test_surviving_flags_match_descent_chains(suite_matroid):
    m = suite_matroid
    for k in range(m.rank()):
        assert set(surviving_flags(m, k)) == _descent_chain_flags(m, k)


def test_deg_lex_matches_mu(suite_matroid, fig1):
    for m in (suite_matroid, fig1):
        for k in range(m.rank()):
            assert deg_lex(m, k) == m.mu(k)


def test_deg_lex_guards():
    b3 = Matroid.boolean(3)
    with pytest.raises(KOutOfRange):
        deg_lex(b3, 3)
    with pytest.raises(KOutOfRange):
        deg_lex(b3, -1)
    with pytest.raises(KOutOfRange, match="k=True outside"):
        deg_lex(Matroid.uniform(2, 3), True)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        deg_lex(looped, 0)


def test_fig1_deg_vector(fig1):
    assert [deg_lex(fig1, k) for k in range(3)] == [1, 3, 2]
