"""Stable intersection with displaced skeleton fans."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import pytest

import matchow.fan as fan_mod
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
    triangle_with_pendant,
)
from matchow.chowlex import surviving_flags
from matchow.exact import hermite_row_reduce, solve_linear
from matchow.fan import WeightedFan, flag_parts, full_coordinates, matroid_fan
from matchow.stable import (
    _check_monotone,
    _coincident_difference,
    _scaled,
    _span_generators,
    displacement_vectors,
)

from conftest import SUITE_IDS, SUITE_MATROIDS

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
# span lattices of the skeleton loci
# ---------------------------------------------------------------------------


def _constant_on(group, vector) -> bool:
    return len({full_coordinates(vector)[g] for g in group}) == 1


def test_span_generators_are_saturated():
    for n in range(1, 6):
        small = list(itertools.product((-1, 0, 1), repeat=n - 1))
        for size in range(1, n + 1):
            for group in map(fs, itertools.combinations(range(n), size)):
                generators = _span_generators(n, sum(1 << g for g in group))
                assert all(_constant_on(group, g) for g in generators)
                # the echelon rows are a basis of the same lattice
                basis = hermite_row_reduce(generators, n - 1)
                assert len(basis) == n - size
                for v in small:
                    if not _constant_on(group, v):
                        continue
                    matrix = [[Fraction(row[i]) for row in basis] for i in range(n - 1)]
                    status, coeffs = solve_linear(matrix, [Fraction(x) for x in v])
                    assert status == "unique"
                    assert all(c.denominator == 1 for c in coeffs)


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


def test_intersect_triple_rejects_non_elements():
    # the first flag of U(2,3); -3 used to read as element 0, 5 to index past the end
    flag = matroid_fan(Matroid.uniform(2, 3)).cones()[0]
    cases = [([-3, 1], [0, 1]), ([0, 1], [1, 5]), ([0, 0.5], [1, 2]), ([True, 2], [0, 1])]
    for smallest, largest in cases:
        with pytest.raises(ValueError, match=r"is not an integer in 0\.\.2"):
            intersect_triple(flag, smallest, largest, A3, B3)


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


def _element_system_outcome(flag, I, J, a, b):
    """Reference: the membership system with one unknown per element 1..n-1.

    One row per consecutive pair of each flag block (right-hand side 0), of
    I (the gap in a) and of J (the gap in b).  Returns "inconsistent",
    "underdetermined", "wall" at the first tie, "outside" at the first
    violated relative-interior inequality, or the point.
    """
    n_el = len(a) + 1
    fa, fb = full_coordinates(a), full_coordinates(b)
    parts = flag_parts(n_el, flag)
    rows, rhs = [], []
    for group, offsets in [(p, (0,) * n_el) for p in parts] + [(I, fa), (J, fb)]:
        ordered = sorted(group)
        for s, t in zip(ordered, ordered[1:]):
            row = [0] * n_el
            row[s], row[t] = 1, -1
            rows.append(row[1:])
            rhs.append(offsets[s] - offsets[t])
    status, solution = solve_linear(rows, rhs)
    if status != "unique":
        return status
    x = full_coordinates(solution)
    margins = [x[min(p)] - x[min(q)] for p, q in zip(parts, parts[1:])]
    for group, offsets, sense in ((I, fa, 1), (J, fb, -1)):
        level = x[min(group)] - offsets[min(group)]
        margins += [sense * (x[e] - offsets[e] - level) for e in range(n_el) if e not in group]
    first = next((g for g in margins if g <= 0), None)
    if first is None:
        return solution
    return "wall" if first == 0 else "outside"


@pytest.mark.parametrize(
    "m, k",
    [(Matroid.fano(), 1), (Matroid.boolean(4), 1), (Matroid.boolean(4), 2)],
    ids=["fano-1", "boolean(4)-1", "boolean(4)-2"],
)
def test_intersect_triple_matches_element_system(m, k):
    n_el = m.n_elements
    r = m.rank() - 1
    a, b = displacement_vectors(n_el, 0)
    outcomes = set()
    hits = 0
    for flag in matroid_fan(m).cones():
        for I in itertools.combinations(range(n_el), r - k + 1):
            for J in itertools.combinations(range(n_el), k + 1):
                expected = _element_system_outcome(flag, fs(I), fs(J), a, b)
                if expected in ("underdetermined", "wall"):
                    with pytest.raises(DegenerateSystem):
                        intersect_triple(flag, I, J, a, b)
                    outcomes.add(expected)
                    continue
                hit = intersect_triple(flag, I, J, a, b)
                if expected in ("inconsistent", "outside"):
                    assert hit is None
                    outcomes.add(expected)
                else:
                    assert hit is not None and hit.point == expected
                    hits += 1
    assert {"inconsistent", "outside"} <= outcomes
    assert hits == m.mu(k)


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


def _every_triple(m: Matroid, k: int, a, b):
    """Reference: intersect_triple on every (flag, I, J), in enumeration order."""
    n_el = m.n_elements
    r = m.rank() - 1
    hits = []
    for flag in matroid_fan(m).cones():
        for I in itertools.combinations(range(n_el), r - k + 1):
            for J in itertools.combinations(range(n_el), k + 1):
                hit = intersect_triple(flag, I, J, a, b)
                if hit is not None:
                    hits.append(hit)
    return hits


@pytest.mark.parametrize(
    "m",
    [*SUITE_MATROIDS, triangle_with_pendant()],
    ids=[*SUITE_IDS, "fig1"],
)
def test_enumeration_matches_every_triple(m):
    # the pruned tree patterns lose no hit and reorder none, at the same draw
    for k in range(m.rank()):
        points, (a, b) = stable_intersection_points(m, k, seed=0)
        assert points == _every_triple(m, k, a, b)


def test_all_indices_are_one(suite_matroid):
    m = suite_matroid
    for k in range(m.rank()):
        assert all(p.index == 1 for p in _points(m, k))


def test_deg_stable_matches_mu(suite_matroid, fig1):
    for m in (suite_matroid, fig1):
        for k in range(m.rank()):
            assert deg_stable(m, k) == m.mu(k)


def test_deg_stable_walks_the_lattice_chains(monkeypatch, suite_matroid, fig1):
    # deg_stable reads the lattice's mask chains as they come: it builds no
    # matroid fan, sorts no cones and splits no flag into frozenset blocks
    def refuse(*args):
        raise AssertionError("deg_stable left the lattice's mask chains")

    monkeypatch.setattr(WeightedFan, "cones", refuse)
    monkeypatch.setattr(fan_mod, "flag_parts", refuse)
    monkeypatch.setattr(stable_mod, "matroid_fan", refuse)
    for m in (suite_matroid, fig1):
        for k in range(m.rank()):
            assert deg_stable(m, k) == m.mu(k)


@pytest.mark.parametrize(
    "m",
    [
        Matroid.uniform(4, 8),
        Matroid.from_graph(list(itertools.combinations(range(5), 2))),
        Matroid.uniform(4, 9),
    ],
    ids=["uniform(4,8)", "K5", "uniform(4,9)"],
)
def test_deg_stable_matches_mu_on_larger_matroids(m):
    assert [deg_stable(m, k) for k in range(m.rank())] == list(m.mu_vector())


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


def test_draw_with_one_coincident_difference_is_redrawn(monkeypatch):
    # b_1 - b_0 = a_0 - a_1 and no other difference coincides: no tree
    # pattern ties, but the draw fails the genericity check all the same
    m = complete_graph_k4()
    n = m.n_elements
    a, b = displacement_vectors(n, 0)
    gap = -a[0]
    b_one = (gap, *(gap + x - b[0] for x in b[1:]))
    fa, fb, _ = _scaled(full_coordinates(a), full_coordinates(b_one))
    pairs = list(itertools.combinations(range(n), 2))
    a_gaps = {fa[s] - fa[t] for s, t in pairs}
    assert sum(fb[t] - fb[s] in a_gaps for s, t in pairs) == 1
    assert _coincident_difference(fa, fb)

    calls = []

    def draws(n_elements, seed):
        calls.append(seed)
        return (a, b_one) if len(calls) == 1 else displacement_vectors(n_elements, seed)

    monkeypatch.setattr(stable_mod, "displacement_vectors", draws)
    points, drawn = stable_mod.stable_intersection_points(m, 1, seed=0)
    assert calls == [0, 1]
    assert drawn == displacement_vectors(n, 1)
    assert sum(p.index for p in points) == m.mu(1)


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
    with pytest.raises(KOutOfRange, match="k=True outside"):
        deg_stable(b3, True)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        deg_stable(looped, 0)
