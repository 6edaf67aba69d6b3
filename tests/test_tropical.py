"""Piecewise-linear functions, tropical divisors, truncation weights."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest

from matchow import (
    KOutOfRange,
    LoopPresent,
    Matroid,
    RangeError,
    Unbalanced,
    complete_graph_k4,
    deg_tropical,
    divisor,
    e_image,
    full_coordinates,
    matroid_fan,
    pl_alpha,
    pl_beta,
    pl_linear,
    triangle_with_pendant,
    truncation_weight,
)
import matchow.cli as cli
import matchow.fan as fan_mod
from matchow.fan import WeightedFan, balancing_certificate
from matchow.tropical import PLFunction

from conftest import SUITE_IDS, SUITE_MATROIDS
from fan_reference import (
    codim_one_stars,
    reference_certificate,
    reference_divisor,
    signed_skeleton_fans,
)

fs = frozenset
K5 = Matroid.from_graph(list(itertools.combinations(range(5), 2)))
DOMINO = Matroid.from_graph([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])


# ---------------------------------------------------------------------------
# PL functions
# ---------------------------------------------------------------------------


def _proper_subsets(n):
    for size in range(1, n):
        yield from map(fs, itertools.combinations(range(n), size))


def _courant(n, ray_values, point):
    """Reference evaluation from a table of values on the rays e_S: split the
    point's full coordinates into level groups and combine the values of the
    level prefixes, weighted by the gaps between consecutive levels."""
    coords = (Fraction(0), *map(Fraction, point))
    levels = sorted(set(coords), reverse=True)
    total = Fraction(0)
    for hi, lo in zip(levels, levels[1:]):
        prefix = fs(e for e in range(n) if coords[e] >= hi)
        total += (hi - lo) * ray_values[prefix]
    return total


def test_pl_functions_recover_ray_values():
    # each closed form against the Courant extension of its ray table, at
    # every ray and at random points with negative and fractional coordinates
    rng = random.Random(37)
    for n in range(2, 7):
        coeffs = {0: 3, n - 1: -1, n // 2: -2} if n > 2 else {0: 3, 1: -3}
        cases = [
            (pl_alpha(n), lambda s: 1 if 0 in s else 0),
            (pl_beta(n), lambda s: 0 if 0 in s else 1),
            (pl_linear(n, coeffs), lambda s: sum(coeffs.get(e, 0) for e in s)),
        ]
        points = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1))
            for _ in range(50)
        ]
        points += [tuple(rng.choice((-2, 0, Fraction(1, 3))) for _ in range(n - 1))
                   for _ in range(10)]
        for f, ray_value in cases:
            table = {s: ray_value(s) for s in _proper_subsets(n)}
            for s, expected in table.items():
                assert f(e_image(n, s)) == expected == _courant(n, table, e_image(n, s))
            for pt in points:
                assert f(pt) == _courant(n, table, pt)


def test_pl_alpha_beta_tables():
    a = pl_alpha(3)
    assert a(e_image(3, fs({0}))) == 1
    assert a(e_image(3, fs({1}))) == 0
    assert a(e_image(3, fs({0, 2}))) == 1
    b = pl_beta(3)
    assert b(e_image(3, fs({0}))) == 0
    assert b(e_image(3, fs({1, 2}))) == 1
    # together they sum to the Courant function of every ray
    for s in _proper_subsets(3):
        assert a(e_image(3, s)) + b(e_image(3, s)) == 1


def test_pl_positive_homogeneity_and_cone_additivity():
    rng = random.Random(51)
    f = pl_alpha(4)
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert f(tuple(lam * x for x in pt)) == lam * f(pt)
        # doubling stays in the same cone, so values add
        assert f(tuple(2 * x for x in pt)) == 2 * f(pt)


def test_pl_linear_is_globally_linear():
    rng = random.Random(53)
    f = pl_linear(4, {1: 1, 2: -1})
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        full = full_coordinates(pt)
        assert f(pt) == full[1] - full[2]
    with pytest.raises(ValueError):
        pl_linear(3, {1: 1})


def test_pl_linear_rejects_keys_outside_the_ground_set():
    for coeffs in ({5: 1, 6: -1}, {-1: 1, 0: -1}, {True: 1, 2: -1}, {"1": 1, 2: -1}):
        with pytest.raises(ValueError):
            pl_linear(3, coeffs)


def test_pl_function_rejects_wrong_dimension():
    for f in (pl_alpha(3), pl_beta(3), pl_linear(3, {0: 1, 2: -1})):
        for point in ((), (1,), (1, 2, 3)):
            with pytest.raises(ValueError):
                f(point)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------


def test_divisor_of_alpha_on_beta_fan():
    # on boolean(3) the window [2, 2] is the locus where the two largest
    # coordinates agree, and [1, 1] where the two smallest agree
    b3 = Matroid.boolean(3)
    out = divisor(pl_alpha(3), truncation_weight(b3, 2, 2))
    assert out.dim == 0
    assert out.weights == {(): Fraction(2)}
    out = divisor(pl_beta(3), truncation_weight(b3, 1, 1))
    assert out.weights == {(): Fraction(2)}


def test_divisor_of_linear_function_vanishes(suite_matroid):
    f = pl_linear(suite_matroid.n_elements, {0: 1, 1: -1})
    out = divisor(f, matroid_fan(suite_matroid))
    assert out.weights == {}


def test_divisor_requires_balanced_input():
    # divisor checks balancing in its own star walk; it must stop at the
    # same first failing face that the separate balancing walk reports
    fano_fan = matroid_fan(Matroid.fano())
    k4_fan = matroid_fan(complete_graph_k4())
    for bad, expected in (
        (matroid_fan(Matroid.uniform(2, 3)).reweighted((fs({0}),), 2), ()),
        (matroid_fan(Matroid.boolean(3)).reweighted((fs({0}), fs({0, 1})), 2), (fs({0}),)),
        (fano_fan.reweighted(fano_fan.cones()[-1], 3), None),
        (k4_fan.reweighted(k4_fan.cones()[5], -1), None),
    ):
        certificate = balancing_certificate(bad)
        assert certificate is not None
        if expected is not None:
            assert certificate == expected
        for f in (pl_alpha(bad.n_elements), pl_beta(bad.n_elements)):
            with pytest.raises(Unbalanced) as exc_info:
                divisor(f, bad)
            assert exc_info.value.certificate == certificate


def test_divisor_input_validation():
    with pytest.raises(ValueError):
        divisor(pl_alpha(4), matroid_fan(Matroid.uniform(2, 3)))
    zero_dim = WeightedFan(3, 0, {(): Fraction(1)})
    with pytest.raises(ValueError):
        divisor(pl_alpha(3), zero_dim)


def _windows(m):
    """The matroid fan and every truncation window of m."""
    r = m.rank() - 1
    fans = [matroid_fan(m)]
    return fans + [truncation_weight(m, r1, r2) for r1 in range(1, r + 1) for r2 in range(r1, r + 1)]


def test_divisor_unchanged_by_adding_a_linear_function():
    # phi_tau of f + l is phi_tau of f plus l, so adding a linear l leaves
    # every divisor weight where it was; the divisor of l alone is empty
    signed, _ = signed_skeleton_fans(4, 2, seed=1)
    assert min(signed.weights.values()) < 0 < max(signed.weights.values())
    fans = [fan for m in SUITE_MATROIDS for fan in _windows(m)] + [signed]
    for fan in fans:
        n = fan.n_elements
        for coeffs in ({0: 1, n - 1: -1}, {0: 2, 1: -3, n - 1: 1}):
            linear = pl_linear(n, coeffs)
            assert divisor(linear, fan).weights == {}
            for f in (pl_alpha(n), pl_beta(n)):
                shifted = PLFunction(n, lambda x, f=f: f.rule(x) + linear.rule(x))
                assert divisor(shifted, fan) == divisor(f, fan)


def _honest_point_divisor(f, w):
    """Reference divisor sum f(w(sigma) e_S) - f(sum w(sigma) e_S), with f
    evaluated at honest points.  With every weight >= 0 the sum lies in the
    cone tau itself, where f is phi_tau, so this is the Allermann-Rau
    divisor; with a negative weight it is not."""
    n = w.n_elements
    out = {}
    for tau, star, combined in codim_one_stars(w):
        value = sum(f([weight * x for x in e_image(n, extra)]) for extra, weight in star)
        value -= f(combined)
        if value != 0:
            out[tau] = value
    return WeightedFan(n, w.dim - 1, out)


def _pl_functions(n):
    return pl_alpha(n), pl_beta(n), pl_linear(n, {0: 1, n - 1: -1})


@pytest.mark.parametrize(
    "m", SUITE_MATROIDS + [triangle_with_pendant(), K5], ids=SUITE_IDS + ["fig1", "K5"]
)
def test_divisor_matches_honest_points_on_nonnegative_weights(m):
    r = m.rank() - 1
    fans = [matroid_fan(m)]
    fans += [truncation_weight(m, r1, r2) for r1 in range(1, r + 1) for r2 in range(r1, r + 1)]
    for fan in fans:
        for f in _pl_functions(m.n_elements):
            assert divisor(f, fan) == _honest_point_divisor(f, fan)


@pytest.mark.parametrize(
    "m",
    [Matroid.uniform(3, 4), Matroid.fano(), Matroid.boolean(4), complete_graph_k4()],
    ids=["uniform(3,4)", "fano", "boolean(4)", "k4"],
)
def test_divisor_is_linear_in_negative_weights(m):
    # scaling every weight by -3 scales every divisor by -3; on U(3,4) the
    # honest-point formula gives alpha's weights a sum of 18 here, not -12
    fan = matroid_fan(m)
    scaled = WeightedFan(m.n_elements, fan.dim, {c: -3 * fan.weight(c) for c in fan.cones()})
    for f in _pl_functions(m.n_elements):
        expected = {tau: -3 * v for tau, v in divisor(f, fan).weights.items()}
        assert divisor(f, scaled).weights == expected


@pytest.mark.parametrize(
    "m",
    SUITE_MATROIDS + [triangle_with_pendant(), K5, Matroid.uniform(4, 9), DOMINO],
    ids=SUITE_IDS + ["fig1", "K5", "uniform(4,9)", "domino"],
)
def test_divisor_steps_match_the_reference(m):
    # every fan that deg_tropical walks through, for every k, step by step
    r = m.rank() - 1
    n = m.n_elements
    for k in range(r + 1):
        w = matroid_fan(m)
        for f in [pl_beta(n)] * k + [pl_alpha(n)] * (r - k):
            step = divisor(f, w)
            assert step == reference_divisor(f, w)
            w = step
        assert w.weight(()) == m.mu(k)


def test_divisor_matches_the_reference_on_signed_skeleta():
    verdicts = set()
    for n, dim in ((n, dim) for n in (3, 4, 5) for dim in range(1, n)):
        for seed in range(2):
            for fan in signed_skeleton_fans(n, dim, seed):
                certificate = reference_certificate(fan)
                verdicts.add(certificate is None)
                for f in _pl_functions(n):
                    if certificate is None:
                        assert divisor(f, fan) == reference_divisor(f, fan)
                    else:
                        with pytest.raises(Unbalanced) as exc_info:
                            divisor(f, fan)
                        assert exc_info.value.certificate == certificate
    assert verdicts == {True, False}


def test_divisor_evaluates_f_once_per_ray():
    points = []
    alpha = pl_alpha(K5.n_elements)
    counted = PLFunction(K5.n_elements, lambda x: points.append(x) or alpha.rule(x))
    fan = matroid_fan(K5)
    assert divisor(counted, fan) == divisor(alpha, fan)
    assert len(set(points)) == len(points) <= len(K5.lattice().proper_nonempty_flats())


def test_tropical_and_balancing_stay_on_masks(tmp_path, monkeypatch, capsys):
    # deg_tropical and the balancing command walk int-mask flags: neither
    # builds frozenset blocks nor sorts faces, and divisor reads f once per ray
    calls = {"flag_parts": 0, "flag_key": 0}
    for name in calls:
        real = getattr(fan_mod, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(fan_mod, name, counted)
    for k in range(K5.rank()):
        assert deg_tropical(K5, k) == K5.mu(k)
    graph = tmp_path / "k5.json"
    graph.write_text(json.dumps({"edges": list(itertools.combinations(range(5), 2))}))
    assert cli.main(["balancing", "--graph", str(graph)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")
    assert calls == {"flag_parts": 0, "flag_key": 0}
    n = K5.n_elements
    for base in (pl_alpha(n), pl_beta(n)):
        rays = []
        counted_f = PLFunction(n, lambda x, base=base: rays.append(x) or base.rule(x))
        w = matroid_fan(K5)
        while w.dim:
            rays.clear()
            w = divisor(counted_f, w)
            assert len(rays) == len(set(rays))
    assert calls == {"flag_parts": 0, "flag_key": 0}


# ---------------------------------------------------------------------------
# truncation weights
# ---------------------------------------------------------------------------


def test_truncation_weight_full_window_is_matroid_fan(suite_matroid):
    m = suite_matroid
    r = m.rank() - 1
    assert truncation_weight(m, 1, r) == matroid_fan(m)


def test_truncation_weight_fano_lines_all_two():
    fan = truncation_weight(Matroid.fano(), 2, 2)
    assert fan.dim == 1
    assert len(fan.weights) == 7
    assert all(w == 2 for w in fan.weights.values())


def test_truncation_weight_window_validation(fig1):
    with pytest.raises(RangeError):
        truncation_weight(fig1, 0, 1)
    with pytest.raises(RangeError):
        truncation_weight(fig1, 2, 1)
    with pytest.raises(RangeError):
        truncation_weight(fig1, 1, 3)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        truncation_weight(looped, 1, 1)


def test_alpha_trims_window_from_above(suite_matroid):
    m = suite_matroid
    r = m.rank() - 1
    f = pl_alpha(m.n_elements)
    for r1 in range(1, r + 1):
        for r2 in range(r1 + 1, r + 1):
            assert divisor(f, truncation_weight(m, r1, r2)) == truncation_weight(
                m, r1, r2 - 1
            )


def test_beta_trims_window_from_below(suite_matroid):
    m = suite_matroid
    r = m.rank() - 1
    f = pl_beta(m.n_elements)
    for r1 in range(1, r + 1):
        for r2 in range(r1 + 1, r + 1):
            assert divisor(f, truncation_weight(m, r1, r2)) == truncation_weight(
                m, r1 + 1, r2
            )


def test_single_rank_window_degrees(suite_matroid):
    # collapsing a one-rank window reads off a reduced coefficient: alpha
    # sums |mobius| over flats through the reference element (giving the
    # previous coefficient), beta over flats avoiding it
    m = suite_matroid
    r = m.rank() - 1
    alpha = pl_alpha(m.n_elements)
    beta = pl_beta(m.n_elements)
    for j in range(1, r + 1):
        window = truncation_weight(m, j, j)
        assert divisor(alpha, window).weight(()) == m.mu(j - 1)
        assert divisor(beta, window).weight(()) == m.mu(j)


def test_alpha_beta_divisors_commute():
    for m in (complete_graph_k4(), Matroid.fano(), Matroid.uniform(3, 4)):
        w = matroid_fan(m)
        a, b = pl_alpha(m.n_elements), pl_beta(m.n_elements)
        assert divisor(a, divisor(b, w)) == divisor(b, divisor(a, w))


# ---------------------------------------------------------------------------
# degrees
# ---------------------------------------------------------------------------


def test_deg_tropical_matches_mu(suite_matroid, fig1):
    for m in (suite_matroid, fig1):
        for k in range(m.rank()):
            assert deg_tropical(m, k) == m.mu(k)


def test_deg_tropical_reaches_k5_u49_and_k6():
    for m in (
        Matroid.from_graph(list(itertools.combinations(range(5), 2))),
        Matroid.uniform(4, 9),
        Matroid.from_graph(list(itertools.combinations(range(6), 2))),
    ):
        for k in range(m.rank()):
            assert deg_tropical(m, k) == m.mu(k)


def test_fan_and_divisor_weights_are_ints(suite_matroid):
    m = suite_matroid
    r = m.rank() - 1
    fans = [matroid_fan(m), truncation_weight(m, 1, r)]
    fans += [divisor(f(m.n_elements), fans[0]) for f in (pl_alpha, pl_beta)]
    for fan in fans:
        assert all(type(w) is int for w in fan.weights.values())


def test_deg_tropical_guards():
    b3 = Matroid.boolean(3)
    with pytest.raises(KOutOfRange):
        deg_tropical(b3, 3)
    with pytest.raises(KOutOfRange, match="k=True outside"):
        deg_tropical(b3, True)
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        deg_tropical(looped, 0)
