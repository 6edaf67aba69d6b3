"""Stable intersection with displaced skeleton fans."""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest

import matchow.stable as stable_mod
from matchow import (
    DegenerateSystem,
    KOutOfRange,
    LoopPresent,
    Matroid,
    complete_graph_k4,
    deg_stable,
    intersect_triple,
    stable_intersection_points,
)
from matchow.chowlex import surviving_flags
from matchow.exact import integer_kernel, lattice_index
from matchow.stable import _check_monotone, _equality_rows, displacement_vectors

fs = frozenset


def _int_vec(*values) -> tuple:
    return tuple(Fraction(v) for v in values)


# ---------------------------------------------------------------------------
# displacements
# ---------------------------------------------------------------------------


def test_displacement_vectors_shape():
    a, b = displacement_vectors(5, 0)
    assert len(a) == len(b) == 4
    _check_monotone(5, a, b)
    # deterministic per seed
    assert displacement_vectors(5, 0) == (a, b)
    assert displacement_vectors(5, 1) != (a, b)


def test_check_monotone_rejects_bad_vectors():
    with pytest.raises(ValueError):
        _check_monotone(3, _int_vec(1, 2), _int_vec(1, 2))
    with pytest.raises(ValueError):
        _check_monotone(3, _int_vec(-1, -2), _int_vec(2, 1))
    with pytest.raises(ValueError):
        _check_monotone(4, _int_vec(-1, -2), _int_vec(1, 2))


# ---------------------------------------------------------------------------
# equality rows and the span lattices they cut out
# ---------------------------------------------------------------------------


def test_equality_rows_and_span_lattice():
    # x_0 = x_1 with x_0 pinned: the row reads -x_1 = 0, the span is the x_2 axis
    rows = _equality_rows(3, fs({0, 1}))
    assert rows == [(-1, 0)]
    basis = integer_kernel(rows, 2)
    assert len(basis) == 1
    assert basis[0] in ((0, 1), (0, -1))
    # all coordinates equal: only the origin survives in the quotient
    assert integer_kernel(_equality_rows(4, fs({0, 1, 2, 3})), 3) == []
    # a single element imposes nothing
    assert _equality_rows(4, fs({2})) == []
    assert lattice_index(integer_kernel([], 3), 3) == 1
    # a row's dot product with a displacement is that displacement's gap
    a = _int_vec(-1, -2, -3)
    full = (0,) + a
    for s, t in ((0, 2), (1, 3)):
        (row,) = _equality_rows(4, fs({s, t}))
        assert sum(x * o for x, o in zip(row, a)) == full[s] - full[t]


# ---------------------------------------------------------------------------
# intersect_triple on hand displacements (a = (0,-1,-2), b = (0,1,2))
# ---------------------------------------------------------------------------

A3 = _int_vec(-1, -2)
B3 = _int_vec(1, 2)


def test_intersect_triple_boolean3_witnesses():
    hit = intersect_triple((fs({1}), fs({0, 1})), (0, 2), (0, 1), A3, B3)
    assert hit is not None
    assert hit.point == _int_vec(1, -2)
    assert hit.smallest == fs({0, 2})
    assert hit.largest == fs({0, 1})
    assert hit.index == 1

    hit = intersect_triple((fs({2}), fs({0, 2})), (0, 1), (0, 2), A3, B3)
    assert hit is not None
    assert hit.point == _int_vec(-1, 2)
    assert hit.index == 1


def test_intersect_triple_misses():
    # solution lands outside the flag cone (part order violated)
    assert intersect_triple((fs({0}), fs({0, 1})), (0, 2), (0, 1), A3, B3) is None
    # equalities contradict the flag's forced ties
    assert intersect_triple((fs({0}),), (0, 1), (0, 2), A3, B3) is None
    # two largest-group members inside one part can never split
    assert intersect_triple((fs({0}),), (0, 1), (1, 2), A3, B3) is None
    # sharing two elements between the groups is out as well
    assert intersect_triple((fs({0}),), (1, 2), (1, 2), A3, B3) is None


def test_intersect_triple_underdetermined_raises():
    # on four elements these rows never pin x_3, so the system is singular
    a = _int_vec(-1, -2, -3)
    b = _int_vec(1, 2, 3)
    with pytest.raises(DegenerateSystem, match="singular"):
        intersect_triple((fs({0}), fs({0, 1}), fs({0, 1, 2})), (0, 1), (0, 2), a, b)


A6 = _int_vec(-1, -2, -3, -4, -5)
B6 = _int_vec(1, 2, 3, 4, 5)


def test_intersect_triple_wall_hits_raise():
    # equally spaced displacements are non-generic for k4: three distinct
    # degeneracies show up, one per guard
    with pytest.raises(DegenerateSystem, match="flag wall"):
        intersect_triple((fs({0}), fs({0, 3, 4})), (0, 1), (2, 3), A6, B6)
    with pytest.raises(DegenerateSystem, match="singular"):
        intersect_triple((fs({0}), fs({0, 3, 4})), (1, 3), (3, 5), A6, B6)
    with pytest.raises(DegenerateSystem, match="skeleton wall"):
        intersect_triple((fs({4}), fs({0, 3, 4})), (0,), (2, 3, 4), A6, B6)


# ---------------------------------------------------------------------------
# full enumeration
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _points(m: Matroid, k: int):
    points, _ = stable_intersection_points(m, k, seed=0)
    return points


def test_boolean3_intersection_points_frozen():
    points, (a, b) = stable_intersection_points(Matroid.boolean(3), 1, seed=0)
    _check_monotone(3, a, b)
    witnesses = {(p.flag, p.smallest, p.largest) for p in points}
    assert witnesses == {
        ((fs({1}), fs({0, 1})), fs({0, 2}), fs({0, 1})),
        ((fs({2}), fs({0, 2})), fs({0, 1}), fs({0, 2})),
    }
    assert all(p.index == 1 for p in points)


def test_intersection_flags_match_lex_survivors(suite_matroid):
    m = suite_matroid
    for k in range(m.rank()):
        points = _points(m, k)
        flags = [p.flag for p in points]
        assert len(flags) == len(set(flags))
        assert set(flags) == set(surviving_flags(m, k))


def test_intersection_part_structure(suite_matroid):
    # each flag part meets each displaced skeleton group at most once, and
    # the two groups share at most one element
    m = suite_matroid
    n = m.n_elements
    for k in range(m.rank()):
        points = _points(m, k)
        for p in points:
            prev: frozenset = frozenset()
            parts = []
            for s in p.flag:
                parts.append(s - prev)
                prev = s
            parts.append(frozenset(range(n)) - prev)
            for part in parts:
                assert len(part & p.smallest) <= 1
                assert len(part & p.largest) <= 1
            assert len(p.smallest & p.largest) <= 1


def test_all_indices_are_one(suite_matroid):
    m = suite_matroid
    for k in range(m.rank()):
        assert all(p.index == 1 for p in _points(m, k))


def test_deg_stable_matches_mu(suite_matroid, fig1):
    for m in (suite_matroid, fig1):
        for k in range(m.rank()):
            assert deg_stable(m, k) == m.mu(k)


def test_deg_stable_seed_invariance():
    k4 = complete_graph_k4()
    for k in range(3):
        values = {deg_stable(k4, k, seed=s) for s in (0, 1, 2)}
        assert values == {k4.mu(k)}


def test_degenerate_draw_is_retried(monkeypatch):
    # force the first draw onto the non-generic integer displacements; the
    # enumeration must redraw and still land on the right degree
    real = displacement_vectors
    calls = []

    def flaky(n_elements, seed):
        calls.append(seed)
        if len(calls) == 1:
            return A6, B6
        return real(n_elements, seed)

    monkeypatch.setattr(stable_mod, "displacement_vectors", flaky)
    assert stable_mod.deg_stable(complete_graph_k4(), 1, seed=0) == 5
    assert len(calls) >= 2


def test_redraw_gives_up_after_32(monkeypatch):
    monkeypatch.setattr(
        stable_mod, "displacement_vectors", lambda n_elements, seed: (A6, B6)
    )
    with pytest.raises(DegenerateSystem, match="32"):
        stable_mod.stable_intersection_points(complete_graph_k4(), 1, seed=0)


def test_deg_stable_guards():
    b3 = Matroid.boolean(3)
    with pytest.raises(KOutOfRange):
        deg_stable(b3, 9)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        deg_stable(looped, 0)
