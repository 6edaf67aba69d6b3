"""Braid fan combinatorics, weighted fans, and balancing certificates."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from matchow import (
    LoopPresent,
    Matroid,
    Unbalanced,
    braid_cone_of,
    deg_lex,
    deg_pp,
    deg_stable,
    deg_tropical,
    e_image,
    full_coordinates,
    is_balanced,
    matroid_fan,
    truncation_weight,
)
from matchow.exact import lattice_index
from matchow.fan import (
    WeightedFan,
    balancing_certificate,
    face_stars,
    flag_parts,
    gap_value,
    in_rational_span,
    require_balanced,
)

from fan_reference import (
    codim_one_stars,
    reference_certificate,
    signed_skeleton_fans,
    span_reference,
    walked_stars,
)


# ---------------------------------------------------------------------------
# quotient coordinates
# ---------------------------------------------------------------------------


def test_e_image_examples():
    assert e_image(4, {1}) == (1, 0, 0)
    assert e_image(4, {0}) == (-1, -1, -1)
    assert e_image(4, {0, 2}) == (-1, 0, -1)
    assert e_image(3, {1, 2}) == (1, 1)
    # the full ground set maps to the origin of the quotient
    assert e_image(3, {0, 1, 2}) == (0, 0)


def test_e_image_rejects_non_elements():
    # 5 and -1 used to map to the origin, and True to e_{1}
    for subset in ({5}, {-1}, {1, 3}, {True}, {False}, {1.0}, {"1"}):
        with pytest.raises(ValueError):
            e_image(3, subset)


def test_full_coordinates_pins_element_zero():
    assert full_coordinates((1, 2)) == (Fraction(0), Fraction(1), Fraction(2))


def test_braid_cone_of_examples():
    # full coordinates (0, -1, -2): strictly decreasing levels
    assert braid_cone_of(3, (-1, -2)) == (frozenset({0}), frozenset({0, 1}))
    # a tie in the top group
    assert braid_cone_of(3, (0, -1)) == (frozenset({0, 1}),)
    # all equal: the origin lies in the trivial cone
    assert braid_cone_of(3, (0, 0)) == ()
    with pytest.raises(ValueError):
        braid_cone_of(3, (1, 2, 3))


def test_braid_cone_contains_its_point():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 5)
        pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1))
        flag = braid_cone_of(n, pt)
        flag_parts(n, flag)
        # the point is a nonnegative combination of the flag generators:
        # rebuild it from the level gaps and compare
        coords = full_coordinates(pt)
        rebuilt = [Fraction(0)] * (n - 1)
        levels = sorted(set(coords), reverse=True)
        for s, (hi, lo) in zip(flag, zip(levels, levels[1:])):
            gap = hi - lo
            rebuilt = [r + gap * v for r, v in zip(rebuilt, e_image(n, s))]
        assert tuple(rebuilt) == pt


def test_validate_flag_errors():
    for flag in (
        (frozenset(),),
        (frozenset({0, 1, 2}),),
        (frozenset({1}), frozenset({2})),
        (frozenset({1}), frozenset({1})),
        (frozenset({3}),),
    ):
        with pytest.raises(ValueError):
            flag_parts(3, flag)
        with pytest.raises(ValueError):
            WeightedFan(3, len(flag), {flag: 1})
    assert flag_parts(3, (frozenset({1}), frozenset({1, 2}))) == [
        frozenset({1}),
        frozenset({2}),
        frozenset({0}),
    ]


# ---------------------------------------------------------------------------
# WeightedFan plumbing
# ---------------------------------------------------------------------------


def test_weighted_fan_drops_zero_weights():
    fan = WeightedFan(3, 1, {(frozenset({0}),): Fraction(0), (frozenset({1}),): 2})
    assert fan.cones() == [(frozenset({1}),)]
    assert fan.weight((frozenset({1}),)) == 2
    assert fan.weight((frozenset({0}),)) == 0


def test_weighted_fan_dimension_check():
    with pytest.raises(ValueError):
        WeightedFan(3, 2, {(frozenset({0}),): 1})


def test_reweighted_copies():
    fan = matroid_fan(Matroid.uniform(2, 3))
    bad = fan.reweighted((frozenset({0}),), 2)
    assert fan.weight((frozenset({0}),)) == 1
    assert bad.weight((frozenset({0}),)) == 2
    assert fan != bad


# ---------------------------------------------------------------------------
# the matroid fan and balancing
# ---------------------------------------------------------------------------


def test_matroid_fan_u23():
    fan = matroid_fan(Matroid.uniform(2, 3))
    assert fan.dim == 1
    assert fan.cones() == [
        (frozenset({0}),),
        (frozenset({1}),),
        (frozenset({2}),),
    ]
    assert all(w == 1 for w in fan.weights.values())


def test_matroid_fan_counts(suite_matroid):
    fan = matroid_fan(suite_matroid)
    lat = suite_matroid.lattice()
    chains = sum(1 for _ in lat.maximal_chains())
    assert len(fan.weights) == chains
    assert fan.dim == suite_matroid.rank() - 1


def test_matroid_fan_needs_loopless():
    looped = Matroid.from_graph([(0, 0), (0, 1)])
    with pytest.raises(LoopPresent):
        matroid_fan(looped)


def test_matroid_fans_balance(suite_matroid):
    ok, cert = is_balanced(matroid_fan(suite_matroid))
    assert ok
    assert cert is None


def test_corrupted_ray_weight_certificate():
    fan = matroid_fan(Matroid.uniform(2, 3)).reweighted((frozenset({0}),), 2)
    ok, cert = is_balanced(fan)
    assert not ok
    assert cert == ()
    with pytest.raises(Unbalanced) as exc_info:
        require_balanced(fan)
    assert exc_info.value.certificate == ()


def test_corrupted_facet_weight_certificate():
    fan = matroid_fan(Matroid.boolean(3))
    bad = fan.reweighted((frozenset({0}), frozenset({0, 1})), 2)
    ok, cert = is_balanced(bad)
    assert not ok
    # the first violated face in canonical order is the ray through e_{0}
    assert cert == (frozenset({0}),)


def test_zero_dimensional_fan_trivially_balanced():
    fan = WeightedFan(3, 0, {(): Fraction(5)})
    assert balancing_certificate(fan) is None


def test_codim_one_stars_of_boolean3():
    fan = matroid_fan(Matroid.boolean(3))
    stars = codim_one_stars(fan)
    assert [tau for tau, _, _ in stars] == [
        (frozenset({0}),),
        (frozenset({0, 1}),),
        (frozenset({0, 2}),),
        (frozenset({1}),),
        (frozenset({1, 2}),),
        (frozenset({2}),),
    ]
    # each ray of the hexagon fan lies in exactly two of its six cones
    tau, star, total = stars[0]
    assert sorted(sorted(extra) for extra, _ in star) == [[0, 1], [0, 2]]
    assert all(w == 1 for _, w in star)
    # e_{01} + e_{02} = e_{0} modulo the all-ones line
    assert total == e_image(3, {0})
    for tau, star, total in stars:
        expected = [Fraction(0)] * 2
        for extra, w in star:
            expected = [x + w * v for x, v in zip(expected, e_image(3, extra))]
        assert total == tuple(expected)
    # the mask walk finds the same stars; the ray {0} is the face (0b001,)
    # and both of its extras lie above it, in gap 1
    walked = face_stars(fan)
    assert sorted(walked[(0b001,), 1]) == [(0b011, 1), (0b101, 1)]
    assert walked_stars(fan) == {
        tau: sorted((tuple(sorted(extra)), w) for extra, w in star) for tau, star, _ in stars
    }


def test_in_rational_span():
    fs = frozenset
    assert in_rational_span((fs({1}),), (2, 0))
    assert not in_rational_span((fs({1}),), (1, 2))
    assert in_rational_span((fs({1, 2}),), (Fraction(3, 2), Fraction(3, 2)))
    # e_{0} is minus e_{12}: both name the same line
    assert in_rational_span((fs({0}),), (-5, -5))
    assert not in_rational_span((fs({0}),), (-5, 0))
    # a complete flag spans the whole quotient
    assert in_rational_span((fs({0}), fs({0, 2})), (3, 7))
    assert in_rational_span((), (0, 0))
    assert not in_rational_span((), (1, 0))
    with pytest.raises(ValueError):
        in_rational_span((fs({1}), fs({1})), (0, 0))


def test_in_rational_span_matches_linear_solve(suite_matroid):
    rng = random.Random(53)
    m = suite_matroid
    n, r = m.n_elements, m.rank() - 1
    fans = [matroid_fan(m)] + [
        truncation_weight(m, r1, r2) for r1 in range(1, r + 1) for r2 in range(r1, r + 1)
    ]
    verdicts = set()
    for fan in fans:
        for tau, _, total in codim_one_stars(fan):
            points = [total] + [
                tuple(rng.randint(-1, 1) for _ in range(n - 1)) for _ in range(3)
            ]
            for point in points:
                verdict = in_rational_span(tau, point)
                assert verdict == span_reference(tau, point)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# faces whose extras lie in several gaps: skeleta of the braid fan
# ---------------------------------------------------------------------------


def test_two_gap_face_by_hand():
    # tau = ({0, 1},) on four elements: {0} and {1} fill gap 0 below it,
    # {0, 1, 2} and {0, 1, 3} fill gap 1 above it
    fs = frozenset
    tau = (fs({0, 1}),)
    cones = [(fs({0}), fs({0, 1})), (fs({1}), fs({0, 1})),
             (fs({0, 1}), fs({0, 1, 2})), (fs({0, 1}), fs({0, 1, 3}))]
    fan = WeightedFan(4, 2, {cone: 1 for cone in cones})
    stars = face_stars(fan)
    assert sorted(stars[(0b0011,), 0]) == [(0b0001, 1), (0b0010, 1)]
    assert sorted(stars[(0b0011,), 1]) == [(0b0111, 1), (0b1011, 1)]
    # each gap's extras are constant on their own block
    assert gap_value(0, 0b0011, stars[(0b0011,), 0]) == 1
    assert gap_value(0b0011, 0b1111, stars[(0b0011,), 1]) == 1
    # doubling one cone above breaks gap 1 only, and the span solve agrees
    bad = fan.reweighted(cones[3], 2)
    bad_stars = face_stars(bad)
    assert gap_value(0, 0b0011, bad_stars[(0b0011,), 0]) == 1
    assert gap_value(0b0011, 0b1111, bad_stars[(0b0011,), 1]) is None
    for fan_, balances in ((fan, True), (bad, False)):
        total = next(total for face, _, total in codim_one_stars(fan_) if face == tau)
        assert span_reference(tau, total) is balances
        # the rays below tau lie in one cone each, so both fans fail first there
        assert balancing_certificate(fan_) == reference_certificate(fan_) == (fs({0}),)


def test_signed_skeleton_fans_match_the_reference():
    verdicts = set()
    multi_gap = False
    for n, dim in ((n, dim) for n in (3, 4, 5) for dim in range(1, n)):
        for seed in range(3):
            for fan in signed_skeleton_fans(n, dim, seed):
                certificate = balancing_certificate(fan)
                assert certificate == reference_certificate(fan)
                assert is_balanced(fan) == (certificate is None, certificate)
                verdicts.add(certificate is None)
                assert walked_stars(fan) == {
                    tau: sorted((tuple(sorted(extra)), w) for extra, w in star)
                    for tau, star, _ in codim_one_stars(fan)
                }
                faces = [tau for tau, _ in face_stars(fan)]
                multi_gap = multi_gap or len(faces) > len(set(faces))
    assert verdicts == {True, False}
    assert multi_gap


@pytest.mark.parametrize("n", [1, 3])
def test_rank_one_uniform(n):
    m = Matroid.uniform(1, n)
    fan = matroid_fan(m)
    assert fan.dim == 0
    assert fan.weights == {(): Fraction(1)}
    assert is_balanced(fan) == (True, None)
    assert deg_lex(m, 0) == deg_pp(m, 0) == deg_stable(m, 0) == deg_tropical(m, 0) == 1
    assert m.mu(0) == m.chains_with_descent_set(()) == 1


# ---------------------------------------------------------------------------
# skeleton fans: where the codim+1 smallest (or largest) coordinates agree.
# On the boolean matroid these are truncation windows with unit weights.
# ---------------------------------------------------------------------------


def _smallest_equal(n: int, codim: int):
    return truncation_weight(Matroid.boolean(n), 1, n - 1 - codim)


def _largest_equal(n: int, codim: int):
    return truncation_weight(Matroid.boolean(n), codim + 1, n - 1)


def _interior_point(n: int, flag, rng) -> list:
    point = [Fraction(0)] * (n - 1)
    for s in flag:
        c = Fraction(rng.randint(1, 9))
        point = [p + c * v for p, v in zip(point, e_image(n, s))]
    return point


def test_alpha_beta_fan_shapes():
    a = _smallest_equal(3, 1)
    assert a.dim == 1
    assert a.cones() == [
        (frozenset({0}),),
        (frozenset({1}),),
        (frozenset({2}),),
    ]
    b = _largest_equal(3, 1)
    assert b.cones() == [
        (frozenset({0, 1}),),
        (frozenset({0, 2}),),
        (frozenset({1, 2}),),
    ]
    # every flag whose member sizes run 1..n-1-codim (resp. codim+1..n-1)
    for n in (3, 4, 5):
        for codim in range(1, n - 1):
            for fan, sizes in (
                (_smallest_equal(n, codim), list(range(1, n - codim))),
                (_largest_equal(n, codim), list(range(codim + 1, n))),
            ):
                assert fan.dim == n - 1 - codim
                assert len(fan.weights) == math.factorial(n) // math.factorial(codim + 1)
                assert all([len(s) for s in flag] == sizes for flag in fan.cones())
                assert set(fan.weights.values()) == {1}


def test_skeleton_fans_balance_small():
    for n in range(3, 6):
        for codim in range(1, n - 1):
            assert balancing_certificate(_smallest_equal(n, codim)) is None
            assert balancing_certificate(_largest_equal(n, codim)) is None


def test_alpha_fan_points_have_equal_minima():
    rng = random.Random(41)
    for n, codim in ((4, 1), (5, 1), (5, 2)):
        for flag in _smallest_equal(n, codim).cones():
            coords = full_coordinates(_interior_point(n, flag, rng))
            smallest = frozenset(range(n)) - flag[-1]
            assert len(smallest) == codim + 1
            low = {coords[e] for e in smallest}
            assert len(low) == 1
            assert all(coords[e] > min(low) for e in flag[-1])


def test_beta_fan_points_have_equal_maxima():
    rng = random.Random(43)
    for flag in _largest_equal(4, 1).cones():
        coords = full_coordinates(_interior_point(4, flag, rng))
        largest = flag[0]
        assert len(largest) == 2
        high = {coords[e] for e in largest}
        assert len(high) == 1
        assert all(coords[e] < max(high) for e in range(4) if e not in largest)


def test_braid_facets_are_unimodular():
    for n in (3, 4):
        for flag in matroid_fan(Matroid.boolean(n)).cones():
            rays = [e_image(n, s) for s in flag]
            assert lattice_index(rays, n - 1) == 1
