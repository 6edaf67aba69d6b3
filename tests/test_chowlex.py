"""Lexicographic flag-monomial expansion."""

from __future__ import annotations

import itertools
import random

import pytest

from matchow import KOutOfRange, LoopPresent, Matroid, deg_lex, triangle_with_pendant
from matchow.chowlex import surviving_flags
from matchow.matroid import FlatLattice, descent_set, jordan_holder_word

from conftest import SUITE, SUITE_MATROIDS, relabel, view
from route_reference import lex_expand_alpha, lex_expand_beta

fs = frozenset


def complete_graph(n: int) -> Matroid:
    return Matroid.from_graph(list(itertools.combinations(range(n), 2)))


K5 = complete_graph(5)
W5 = Matroid.from_graph([(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
DOMINO = Matroid.from_graph([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])


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
            out.add(tuple(map(view, chain[1:-1])))
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


def _reference_flags(m: Matroid, k: int) -> list:
    """The frozenset all-flats scan: every monomial of a layer is tested
    against every proper flat, in the lattice's order."""
    flats = [view(f) for f in m.lattice().proper_nonempty_flats()]
    layer = [()]
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


RELABELLED_CASES = SUITE + [("fig1", triangle_with_pendant()), ("K5", K5)]
REFERENCE_CASES = RELABELLED_CASES + [
    ("W5", W5),
    ("domino", DOMINO),
    ("U(4,9)", Matroid.uniform(4, 9)),
    ("U(4,10)", Matroid.uniform(4, 10)),
    ("U(5,10)", Matroid.uniform(5, 10)),
]


@pytest.mark.parametrize(
    "m", [m for _, m in REFERENCE_CASES], ids=[name for name, _ in REFERENCE_CASES]
)
def test_surviving_flags_equal_the_reference_scan(m):
    for k in range(m.rank()):
        assert surviving_flags(m, k) == _reference_flags(m, k), k


def test_surviving_flags_equal_the_reference_scan_on_k6():
    k6 = complete_graph(6)
    assert surviving_flags(k6, 2) == _reference_flags(k6, 2)


@pytest.mark.parametrize(
    "m", [m for _, m in RELABELLED_CASES], ids=[name for name, _ in RELABELLED_CASES]
)
def test_surviving_flags_equal_the_reference_scan_relabelled(m):
    for seed in range(3):
        perm = random.Random(seed).sample(m.elements, m.n_elements)
        relabelled = relabel(m, perm)
        for k in range(m.rank()):
            assert surviving_flags(relabelled, k) == _reference_flags(relabelled, k), (perm, k)


def test_deg_lex_scans_the_proper_flats_once(monkeypatch):
    u510 = Matroid.uniform(5, 10)
    calls = []
    real = FlatLattice.proper_nonempty_flats

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FlatLattice, "proper_nonempty_flats", counting)
    assert deg_lex(u510, 3) == u510.mu(3)
    assert len(calls) <= 1


def test_deg_lex_reads_no_oracle(monkeypatch):
    expected = [[m.mu(k) for k in range(m.rank())] for m in SUITE_MATROIDS]

    def forbidden(*args, **kwargs):
        raise AssertionError("lex read an oracle")

    for name in ("covers_above", "chains"):
        monkeypatch.setattr(FlatLattice, name, forbidden)
    for name in ("char_poly", "mu"):
        monkeypatch.setattr(Matroid, name, forbidden)
    for m, mus in zip(SUITE_MATROIDS, expected):
        assert [deg_lex(m, k) for k in range(m.rank())] == mus
