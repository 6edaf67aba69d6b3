"""Matroid construction, lattice of flats, and the two combinatorial oracles."""

from __future__ import annotations

import itertools
import random
from functools import reduce
from operator import or_

import pytest

from matchow import (
    EmptyBases,
    ExchangeViolation,
    KOutOfRange,
    LoopContract,
    LoopPresent,
    Matroid,
    complete_graph_k4,
    poly_q_str,
    triangle_with_pendant,
)
import matchow.matroid as matroid_module
from matchow.matroid import _members, builtin, descent_set, jordan_holder_word

from conftest import SUITE, SUITE_IDS, SUITE_MATROIDS


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_empty_bases_rejected():
    with pytest.raises(EmptyBases):
        Matroid(3, [])


def test_unequal_basis_sizes_rejected():
    with pytest.raises(ExchangeViolation):
        Matroid(4, [{0, 1}, {2}])


def test_exchange_axiom_rejected():
    # {0,1} and {2,3} admit no single-element exchange
    with pytest.raises(ExchangeViolation):
        Matroid(4, [{0, 1}, {2, 3}])


def test_exchange_witness_ignores_basis_order():
    # the violation named depends on the set of bases, not on the input order
    bases = [[0, 3], [0, 1], [2, 6], [4, 6], [1, 4]]
    rng = random.Random(5)
    messages = set()
    for _ in range(10):
        shuffled = [rng.sample(b, len(b)) for b in rng.sample(bases, len(bases))]
        with pytest.raises(ExchangeViolation, match="no exchange") as err:
            Matroid(7, shuffled)
        messages.add(str(err.value))
    assert len(messages) == 1


def _exchange_holds(bases) -> bool:
    family = {frozenset(b) for b in bases}
    return all(
        any((b1 - {x}) | {y} in family for y in b2 - b1)
        for b1 in family
        for b2 in family
        for x in b1 - b2
    )


def test_exchange_check_matches_frozenset_reference():
    # random equal-size families on up to 6 elements, matroids and not
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        n, r = rng.randint(2, 6), rng.randint(1, 3)
        every = list(itertools.combinations(range(n), min(r, n)))
        bases = rng.sample(every, rng.randint(1, len(every)))
        try:
            Matroid(n, bases)
            accepted = True
        except ExchangeViolation:
            accepted = False
        assert accepted == _exchange_holds(bases), bases
        outcomes.add(accepted)
    assert outcomes == {True, False}


def _pair_scan_exchange(masks) -> None:
    """The exchange check as one scan of all bases per (B1, x): the
    reference for the grouped check, witness order included."""
    mask_set = set(masks)
    ground = reduce(or_, masks)
    for b1 in masks:
        xs = b1
        while xs:
            x = xs & -xs
            xs ^= x
            trimmed = b1 ^ x
            hit = x
            ys = ground & ~b1
            while ys:
                y = ys & -ys
                ys ^= y
                if trimmed | y in mask_set:
                    hit |= y
            for b2 in masks:
                if not b2 & hit:
                    raise ExchangeViolation(
                        f"no exchange for {x.bit_length() - 1} out of "
                        f"{list(_members(b1))} toward {list(_members(b2))}"
                    )


def _exchange_verdict(check, masks):
    try:
        check(masks)
    except ExchangeViolation as err:
        return str(err)
    return None


def _random_graph_bases(rng: random.Random, n_edges: int) -> list:
    edges = [tuple(rng.sample(range(5), 2)) for _ in range(n_edges)]
    return [_members(b) for b in Matroid.from_graph(edges)._masks]


def test_grouped_exchange_check_matches_pair_scan():
    # random equal-size families on up to 8 elements: samples of r-sets, and
    # cycle matroids of random graphs with a basis dropped or one added
    rng = random.Random(29)
    verdicts = set()
    for trial in range(600):
        n = rng.randint(1, 8)
        if trial % 2:
            bases = _random_graph_bases(rng, n)
            every = list(itertools.combinations(range(n), len(bases[0])))
            if rng.random() < 0.4 and len(bases) > 1:
                bases.remove(rng.choice(bases))
            elif rng.random() < 0.5:
                bases.append(rng.choice(every))
        else:
            every = list(itertools.combinations(range(n), rng.randint(0, n)))
            bases = rng.sample(every, rng.randint(1, min(len(every), 12)))
        masks = tuple(matroid_module._mask(b) for b in bases)
        shuffled = list(dict.fromkeys(masks))
        rng.shuffle(shuffled)
        for order in (tuple(sorted(shuffled)), tuple(shuffled)):
            expected = _exchange_verdict(_pair_scan_exchange, order)
            assert _exchange_verdict(matroid_module._check_exchange, order) == expected, order
            verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_k7_rung_from_explicit_bases(monkeypatch):
    # the 7^5 spanning trees of K7, one per Pruefer sequence, checked in full
    edge_index = {e: i for i, e in enumerate(itertools.combinations(range(7), 2))}
    trees = []
    for code in itertools.product(range(7), repeat=5):
        degree = [1] * 7
        for v in code:
            degree[v] += 1
        tree = []
        for v in code:
            leaf = degree.index(1)
            tree.append(edge_index[min(leaf, v), max(leaf, v)])
            degree[leaf] -= 1
            degree[v] -= 1
        last = [u for u in range(7) if degree[u] == 1]
        tree.append(edge_index[tuple(last)])
        trees.append(tree)

    calls = []
    real_check = matroid_module._check_exchange
    monkeypatch.setattr(
        matroid_module, "_check_exchange", lambda masks: calls.append(masks) or real_check(masks)
    )
    k7 = Matroid(21, trees)
    assert len(calls) == 1
    assert len(k7.bases) == 16807
    # flats of a complete graph's cycle matroid are the partitions of its
    # vertices: Stirling numbers S(7, 7 - rank), Bell(7) = 877 in all
    levels = k7.lattice().flats_by_rank
    assert [len(level) for level in levels] == [1, 21, 140, 350, 301, 63, 1]


def test_every_construction_checks_exchange_once(monkeypatch):
    # a shortcut that skips the check for trusted constructors must show here
    k4, b3 = complete_graph_k4(), Matroid.boolean(3)
    constructions = {
        "Matroid": lambda: Matroid(3, [[0, 1], [0, 2], [1, 2]]),
        "uniform": lambda: Matroid.uniform(2, 4),
        "boolean": lambda: Matroid.boolean(3),
        "from_graph": lambda: Matroid.from_graph([(0, 1), (1, 2)]),
        "fano": Matroid.fano,
        "builtin": lambda: builtin("fig1"),
        "delete": lambda: k4.delete(0),
        "delete a coloop": lambda: b3.delete(1),
        "contract": lambda: k4.contract(2),
        "truncate": k4.truncate,
        "dual": k4.dual,
    }
    calls = []
    real_check = matroid_module._check_exchange

    def counting_check(masks):
        calls.append(masks)
        return real_check(masks)

    column_builds = []
    real_columns = matroid_module._basis_columns

    def counting_columns(masks, n_elements):
        column_builds.append(masks)
        return real_columns(masks, n_elements)

    monkeypatch.setattr(matroid_module, "_check_exchange", counting_check)
    monkeypatch.setattr(matroid_module, "_basis_columns", counting_columns)
    for name, construct in constructions.items():
        before, columns_before = len(calls), len(column_builds)
        construct()
        assert len(calls) == before + 1, name
        # the exchange check hands its columns to the constructor
        assert len(column_builds) == columns_before + 1, name


def test_elements_out_of_range_rejected():
    with pytest.raises(ValueError):
        Matroid(2, [{0, 5}])
    with pytest.raises(ValueError):
        Matroid(2, [{-1, 0}])


def test_bool_and_repeated_elements_rejected():
    with pytest.raises(ValueError, match="not an integer"):
        Matroid(2, [[True]])
    with pytest.raises(ValueError, match="twice"):
        Matroid(3, [[0, 0]])
    with pytest.raises(ValueError, match="twice"):
        Matroid(3, [[0, 1], [2, 2]])
    with pytest.raises(ValueError, match="negative"):
        Matroid(-1, [[]])
    # a size must be an int: no float, and no bool standing in for 0 or 1
    with pytest.raises(ValueError, match="n_elements=2.0 is not an integer"):
        Matroid(2.0, [[0]])
    with pytest.raises(ValueError, match="n_elements=True is not an integer"):
        Matroid(True, [[0]])
    with pytest.raises(ValueError, match="rank=True and n_elements=3 must be integers"):
        Matroid.uniform(True, 3)
    with pytest.raises(ValueError, match="n_elements=3.0 must be integers"):
        Matroid.uniform(2, 3.0)
    with pytest.raises(ValueError, match="must be integers"):
        Matroid.boolean(False)


def test_rank_zero_has_no_reduced_polynomial():
    empty = Matroid(0, [[]])
    assert empty.is_loopless()
    assert empty.char_poly() == (1,)
    assert empty.mu_vector() == ()
    with pytest.raises(KOutOfRange, match="rank-0"):
        empty.reduced_char_poly()


def test_uniform_and_boolean_counts():
    assert len(Matroid.uniform(2, 4).bases) == 6
    assert len(Matroid.boolean(3).bases) == 1
    with pytest.raises(ValueError):
        Matroid.uniform(5, 3)


def test_fano_has_28_bases():
    f = Matroid.fano()
    assert f.n_elements == 7
    assert f.rank() == 3
    assert len(f.bases) == 28
    # a line of the plane is dependent, a triangle is a basis
    assert f.rank({0, 1, 2}) == 2
    assert f.rank({0, 1, 3}) == 3


def test_k4_has_16_spanning_trees():
    k4 = complete_graph_k4()
    assert k4.n_elements == 6
    assert k4.rank() == 3
    assert len(k4.bases) == 16
    # elements 0,1,2 form the triangle on vertices {0,1,2}
    assert k4.rank({0, 1, 2}) == 2


def test_from_graph_rejects_bad_edges():
    for edges in ([(0, 1, 2)], [5], [(0, [1])], [(0, True)], [(0, 1.5)]):
        with pytest.raises(ValueError, match="not a pair"):
            Matroid.from_graph(edges)


def test_builtin_lookup():
    assert builtin("k4") == complete_graph_k4()
    with pytest.raises(ValueError):
        builtin("nonexistent")


# ---------------------------------------------------------------------------
# rank, closure, loops
# ---------------------------------------------------------------------------


def test_rank_axioms_random_subsets(suite_matroid):
    m = suite_matroid
    rng = random.Random(17)
    ground = list(m.elements)
    for _ in range(30):
        a = frozenset(e for e in ground if rng.random() < 0.5)
        b = frozenset(e for e in ground if rng.random() < 0.5)
        assert 0 <= m.rank(a) <= len(a)
        if a <= b:
            assert m.rank(a) <= m.rank(b)
        assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)


def test_closure_is_extensive_idempotent(suite_matroid):
    m = suite_matroid
    rng = random.Random(23)
    for _ in range(20):
        s = frozenset(e for e in m.elements if rng.random() < 0.5)
        c = m.closure(s)
        assert s <= c
        assert m.closure(c) == c
        assert m.rank(c) == m.rank(s)


def test_loops_and_coloops():
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    assert looped.loops() == frozenset({0})
    assert not looped.is_loopless()
    assert looped.char_poly() == (0, 0)
    with pytest.raises(LoopPresent):
        looped.reduced_char_poly()
    with pytest.raises(LoopContract):
        looped.contract(0)

    fig = triangle_with_pendant()
    assert fig.coloops() == frozenset({3})
    assert fig.loops() == frozenset()


def test_rank_and_closure_reject_non_elements():
    fano = Matroid.fano()
    for subset in ([7], [9, 0], [True], [-1], [1.0]):
        for query in (fano.rank, fano.closure):
            with pytest.raises(ValueError, match=r"is not an integer in 0\.\.6$"):
                query(subset)
    assert fano.rank(iter([0, 1])) == 2
    assert fano.closure(iter([0, 1])) == frozenset({0, 1, 2})


def _rank_brute(m: Matroid, subset: frozenset) -> int:
    return max(len(subset & b) for b in m.bases)


def _subsets(m: Matroid):
    for size in range(m.n_elements + 1):
        for s in itertools.combinations(m.elements, size):
            yield frozenset(s)


def test_rank_and_closure_match_brute_force(suite_matroid):
    m = suite_matroid
    relatives = [m, m.dual(), m.delete(0), m.contract(0), m.truncate()]
    for rel in relatives:
        for s in _subsets(rel):
            rk = _rank_brute(rel, s)
            assert rel.rank(s) == rk
            assert rel.closure(list(s)) == frozenset(
                e for e in rel.elements if _rank_brute(rel, s | {e}) == rk
            )


# ---------------------------------------------------------------------------
# lattice of flats against a brute-force closure oracle
# ---------------------------------------------------------------------------


def _flats_brute(m: Matroid) -> set:
    out = set()
    for size in range(m.n_elements + 1):
        for s in itertools.combinations(m.elements, size):
            out.add(m.closure(s))
    return out


def test_lattice_matches_brute_force(suite_matroid):
    m = suite_matroid
    lat = m.lattice()
    assert set(lat.flats()) == _flats_brute(m)
    for rk, level in enumerate(lat.flats_by_rank):
        for f in level:
            assert m.rank(f) == rk
            assert lat.flat_rank[f] == rk


def _lattice_reference(m: Matroid):
    """Flats by rank, covers and Moebius values from closures taken by
    max-overlap rank over every subset."""
    bases = [frozenset(b) for b in m.bases]
    ranks = {}

    def rank(s: frozenset) -> int:
        if s not in ranks:
            ranks[s] = max(len(s & b) for b in bases)
        return ranks[s]

    subsets = [
        frozenset(s)
        for size in range(m.n_elements + 1)
        for s in itertools.combinations(m.elements, size)
    ]
    flats = {frozenset(e for e in m.elements if rank(s | {e}) == rank(s)) for s in subsets}
    levels = [[] for _ in range(m.rank() + 1)]
    for f in sorted(flats, key=lambda f: tuple(sorted(f))):
        levels[rank(f)].append(f)
    covers = {
        f: tuple(g for g in levels[rk + 1] if f < g)
        for rk, level in enumerate(levels[:-1])
        for f in level
    }
    mobius = {}
    for f in (f for level in levels for f in level):
        mobius[f] = -sum(mu for g, mu in mobius.items() if g < f) if mobius else 1
    return tuple(map(tuple, levels)), covers, mobius


@pytest.mark.parametrize(
    "m",
    SUITE_MATROIDS
    + [
        triangle_with_pendant(),
        Matroid.uniform(3, 7),
        Matroid.from_graph(list(itertools.combinations(range(5), 2))),
        Matroid.from_graph([(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
    ],
    ids=SUITE_IDS + ["fig1", "U(3,7)", "K5", "W5"],
)
def test_lattice_matches_combinations_reference(m):
    levels, covers, mobius = _lattice_reference(m)
    lat = m.lattice()
    assert lat.flats_by_rank == levels
    for f, above in covers.items():
        assert lat.covers_above(f) == above
    assert lat.mobius == mobius
    proper = [f for level in levels[1:-1] for f in level]
    assert [frozenset(_members(f)) for f in lat.proper_nonempty_masks()] == proper


def test_flat_counts_frozen():
    counts = lambda m: [len(level) for level in m.lattice().flats_by_rank]
    assert counts(triangle_with_pendant()) == [1, 4, 4, 1]
    assert counts(complete_graph_k4()) == [1, 6, 7, 1]
    assert counts(Matroid.fano()) == [1, 7, 7, 1]


def test_covers_raise_rank_by_one(suite_matroid):
    lat = suite_matroid.lattice()
    for f in lat.flats():
        if f == lat.top:
            assert lat.covers_above(f) == ()
            continue
        for g in lat.covers_above(f):
            assert f < g
            assert lat.flat_rank[g] == lat.flat_rank[f] + 1


def test_lattice_views_keep_level_order(suite_matroid):
    # flags, cones and the lex expansion follow the order of each level
    lat = suite_matroid.lattice()
    for level in lat.flats_by_rank:
        assert list(level) == sorted(level, key=lambda f: tuple(sorted(f)))
    for rk, level in enumerate(lat.flats_by_rank[:-1]):
        for f in level:
            assert lat.covers_above(f) == tuple(g for g in lat.flats_by_rank[rk + 1] if f < g)
    proper = lat.proper_nonempty_flats()
    assert proper is lat.proper_nonempty_flats()
    assert proper == tuple(f for level in lat.flats_by_rank[1:-1] for f in level)


def test_mobius_frozen_values():
    k4 = complete_graph_k4().lattice()
    assert k4.mobius[k4.bottom] == 1
    for atom in k4.flats_by_rank[1]:
        assert k4.mobius[atom] == -1
    # triangles get 2, two-edge matchings get 1
    line_values = sorted(k4.mobius[f] for f in k4.flats_by_rank[2])
    assert line_values == [1, 1, 1, 2, 2, 2, 2]
    assert k4.mobius[k4.top] == -6

    fano = Matroid.fano().lattice()
    assert all(fano.mobius[f] == 2 for f in fano.flats_by_rank[2])
    assert fano.mobius[fano.top] == -8


def test_mobius_defining_recursion(suite_matroid):
    lat = suite_matroid.lattice()
    for f in lat.flats():
        total = sum(lat.mobius[g] for g in lat.flats() if g <= f)
        assert total == (1 if f == lat.bottom else 0)


def test_weisner_atom_identity():
    # sum of mu(F) over flats whose join with a fixed atom is the top is zero
    for m in (complete_graph_k4(), Matroid.fano()):
        lat = m.lattice()
        for atom in lat.flats_by_rank[1]:
            total = sum(
                lat.mobius[f] for f in lat.flats() if m.closure(f | atom) == lat.top
            )
            assert total == 0


# ---------------------------------------------------------------------------
# characteristic polynomial
# ---------------------------------------------------------------------------


def test_char_poly_frozen():
    assert Matroid.fano().char_poly() == (-8, 14, -7, 1)
    assert complete_graph_k4().char_poly() == (-6, 11, -6, 1)
    assert triangle_with_pendant().char_poly() == (-2, 5, -4, 1)
    assert Matroid.boolean(3).char_poly() == (-1, 3, -3, 1)
    assert Matroid.uniform(2, 4).char_poly() == (3, -4, 1)


def test_char_poly_is_computed_once(monkeypatch):
    # the first call still cross-checks the subset sum against the Moebius sum
    corrupted = Matroid.fano()
    lat = corrupted.lattice()
    lat.mobius[lat.top] += 1
    with pytest.raises(AssertionError, match="disagree"):
        corrupted.char_poly()

    m = Matroid.fano()
    first = m.char_poly()
    queries = []
    real_rank = Matroid.rank

    def counting_rank(self, subset=None):
        queries.append(subset)
        return real_rank(self, subset)

    monkeypatch.setattr(Matroid, "rank", counting_rank)
    assert m.char_poly() == first
    assert queries == []


def test_char_poly_vanishes_at_one(suite_matroid):
    coeffs = suite_matroid.char_poly()
    assert sum(coeffs) == 0


@pytest.mark.parametrize(
    "m",
    SUITE_MATROIDS
    + [Matroid.from_graph([(0, 0), (0, 1), (1, 2), (2, 0)]), Matroid(4, [[1], [2]])],
    ids=SUITE_IDS + ["looped triangle", "two loops"],
)
def test_subset_sum_matches_brute_force(m, monkeypatch):
    # on a matroid with loops the Moebius sum is skipped, so this is its only check
    r = m.rank()
    expected = [0] * (r + 1)
    for s in _subsets(m):
        expected[r - _rank_brute(m, s)] += (-1) ** len(s)
    fresh = Matroid(m.n_elements, m.bases)
    # the walk takes ranks from its own greedy subset, not from rank queries
    real_rank = Matroid.rank

    def no_subset_rank(self, subset=None):
        assert subset is None, f"rank query on {subset}"
        return real_rank(self)

    monkeypatch.setattr(Matroid, "rank", no_subset_rank)
    assert fresh.char_poly() == tuple(expected)


def test_reduced_char_poly_and_rendering(fig1):
    assert fig1.reduced_char_poly() == (2, -3, 1)
    assert poly_q_str(fig1.reduced_char_poly()) == "q^2 - 3*q + 2"
    assert poly_q_str(fig1.char_poly()) == "q^3 - 4*q^2 + 5*q - 2"
    assert poly_q_str((0,)) == "0"
    assert poly_q_str((-1, 1)) == "q - 1"


def _count_proper_colorings(edges, q: int) -> int:
    vertices = sorted({v for e in edges for v in e})
    count = 0
    for colors in itertools.product(range(q), repeat=len(vertices)):
        assign = dict(zip(vertices, colors))
        if all(assign[u] != assign[v] for u, v in edges):
            count += 1
    return count


def test_fig1_chromatic_oracle():
    # for a connected graph the coloring count is q times the matroid polynomial
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    m = Matroid.from_graph(edges)
    coeffs = m.char_poly()
    for q in range(1, 6):
        value = sum(c * q**p for p, c in enumerate(coeffs))
        assert _count_proper_colorings(edges, q) == q * value


def test_mu_vectors_frozen():
    expected = {
        "uniform(2,3)": (1, 2),
        "uniform(2,4)": (1, 3),
        "uniform(3,4)": (1, 3, 3),
        "boolean(3)": (1, 2, 1),
        "boolean(4)": (1, 3, 3, 1),
        "k4": (1, 5, 6),
        "fano": (1, 6, 8),
    }
    for name, m in SUITE:
        assert m.mu_vector() == expected[name], name
    assert triangle_with_pendant().mu_vector() == (1, 3, 2)


def test_mu_out_of_range(fig1):
    with pytest.raises(KOutOfRange):
        fig1.mu(-1)
    with pytest.raises(KOutOfRange):
        fig1.mu(fig1.rank())
    for k in (True, 1.0):
        with pytest.raises(KOutOfRange, match=f"k={k!r} outside"):
            Matroid.fano().mu(k)


# ---------------------------------------------------------------------------
# minors, truncation, duality
# ---------------------------------------------------------------------------


def test_delete_contract_ranks(fig1):
    # element 0 lies on the triangle: neither loop nor coloop
    assert fig1.delete(0).rank() == fig1.rank()
    assert fig1.contract(0).rank() == fig1.rank() - 1
    # deleting the pendant coloop drops it from every basis instead
    tri = fig1.delete(3)
    assert tri == Matroid.uniform(2, 3)


def test_delete_and_contract_reject_non_elements():
    fano = Matroid.fano()
    for e in (7, -1, True, 1.0):
        for minor in (fano.delete, fano.contract):
            with pytest.raises(ValueError, match=rf"element {e!r} .* in 0\.\.6$"):
                minor(e)


def test_deletion_contraction_of_mu(suite_matroid):
    m = suite_matroid
    r = m.rank() - 1
    free = [e for e in m.elements if e not in m.loops() and e not in m.coloops()]
    if not free:
        pytest.skip("every element is a coloop")
    e = free[0]
    md, mc = m.delete(e), m.contract(e)
    for k in range(r + 1):
        expected = md.mu(k) + (mc.mu(k - 1) if k >= 1 else 0)
        assert m.mu(k) == expected


def test_truncate_drops_rank_and_preserves_low_mu():
    k4 = complete_graph_k4()
    t = k4.truncate()
    assert t.rank() == 2
    assert t.mu_vector() == (1, 5)
    with pytest.raises(ValueError):
        Matroid(1, [frozenset()]).truncate()


def test_mu_from_iterated_truncation(suite_matroid):
    # after truncating down to rank k+1, the top Moebius number is
    # (-1)^(k+1) times the k-th reduced coefficient
    m = suite_matroid
    r = m.rank() - 1
    for k in range(r + 1):
        t = m
        for _ in range(r - k):
            t = t.truncate()
        assert t.rank() == k + 1
        lat = t.lattice()
        assert lat.mobius[lat.top] == (-1) ** (k + 1) * m.mu(k)


def test_dual_involution_and_uniform_duality(suite_matroid):
    m = suite_matroid
    assert m.dual().dual() == m
    assert m.dual().rank() == m.n_elements - m.rank()


def test_uniform_dual_identities():
    assert Matroid.uniform(2, 4).dual() == Matroid.uniform(2, 4)
    assert Matroid.uniform(1, 3).dual() == Matroid.uniform(2, 3)


# ---------------------------------------------------------------------------
# maximal chains and descent sets
# ---------------------------------------------------------------------------


def test_jordan_holder_word_and_descents():
    b3 = Matroid.boolean(3)
    words = sorted(
        jordan_holder_word(chain) for chain in b3.lattice().maximal_chains()
    )
    assert words == sorted(itertools.permutations(range(3)))
    assert descent_set((1, 0, 2)) == frozenset({1})
    assert descent_set((2, 1, 0)) == frozenset({1, 2})
    assert descent_set((0, 1, 2)) == frozenset()


def test_chains_with_descent_set_examples():
    b3 = Matroid.boolean(3)
    # words 102 and 201 are the only ones descending exactly at position 1
    assert b3.chains_with_descent_set({1}) == 2
    assert b3.chains_with_descent_set(()) == 1
    assert b3.chains_with_descent_set({1, 2}) == 1
    with pytest.raises(KOutOfRange):
        b3.chains_with_descent_set({0})
    with pytest.raises(KOutOfRange):
        b3.chains_with_descent_set({3})


def test_chains_with_descent_set_rejects_non_int_positions():
    # True is no name for position 1, even beside a genuine 1
    fano = Matroid.fano()
    for positions in ({True}, [1, True], [1.0], ["1"]):
        with pytest.raises(KOutOfRange, match="outside 1..2"):
            fano.chains_with_descent_set(positions)
    assert fano.chains_with_descent_set(iter([1])) == 6


def test_descent_counts_partition_all_chains(suite_matroid):
    m = suite_matroid
    lat = m.lattice()
    total = sum(1 for _ in lat.maximal_chains())
    r = m.rank() - 1
    by_set = 0
    for size in range(r + 1):
        for positions in itertools.combinations(range(1, r + 1), size):
            by_set += m.chains_with_descent_set(positions)
    assert by_set == total


def test_initial_descent_chains_match_mu(suite_matroid):
    m = suite_matroid
    for k in range(m.rank()):
        assert m.chains_with_descent_set(range(1, k + 1)) == m.mu(k)
