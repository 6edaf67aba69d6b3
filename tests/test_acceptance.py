"""Acceptance gate: one test and one printed verdict line per criterion.

Run with -s to see the verdict lines while passing; each criterion is also
its own test so the verbose pytest report carries one pass/fail line each.
"""

from __future__ import annotations

import math
import time

from matchow import (
    Matroid,
    deg_lex,
    deg_pp,
    deg_stable,
    deg_tropical,
    divisor,
    is_balanced,
    matroid_fan,
    pl_alpha,
    pl_beta,
    pl_linear,
    poly_q_str,
    stable_intersection_points,
    triangle_with_pendant,
    truncation_weight,
)

from conftest import SUITE, relabel, swap

fs = frozenset

METHODS = {
    "lex": lambda m, k: deg_lex(m, k),
    "pp": lambda m, k: deg_pp(m, k),
    "stable": lambda m, k: deg_stable(m, k),
    "tropical": lambda m, k: deg_tropical(m, k),
}


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_1_boolean3_alpha_beta_degree():
    started = time.perf_counter()
    m = Matroid.boolean(3)
    values = {name: fn(m, 1) for name, fn in METHODS.items()}
    elapsed = time.perf_counter() - started
    ok = all(v == 2 for v in values.values()) and elapsed < 1.0
    _report(
        1,
        "boolean(3) deg(alpha*beta) = 2 by all four methods under 1s",
        ok,
        f"values={values}, elapsed={elapsed:.3f}s",
    )


def test_criterion_2_triangle_with_pendant_full_agreement():
    started = time.perf_counter()
    m = triangle_with_pendant()
    reduced = poly_q_str(m.reduced_char_poly())
    vectors = {
        name: tuple(fn(m, k) for k in range(3)) for name, fn in METHODS.items()
    }
    vectors["whitney"] = m.mu_vector()
    vectors["chains"] = tuple(
        m.chains_with_descent_set(range(1, k + 1)) for k in range(3)
    )
    elapsed = time.perf_counter() - started
    ok = (
        reduced == "q^2 - 3*q + 2"
        and all(v == (1, 3, 2) for v in vectors.values())
        and elapsed < 1.0
    )
    _report(
        2,
        "triangle-with-pendant gives q^2 - 3*q + 2 and (1,3,2) six ways under 1s",
        ok,
        f"reduced={reduced}, vectors={vectors}, elapsed={elapsed:.3f}s",
    )


def test_criterion_3_suite_six_way_agreement():
    started = time.perf_counter()
    failures = []
    for name, m in SUITE:
        for k in range(m.rank()):
            values = {meth: fn(m, k) for meth, fn in METHODS.items()}
            values["whitney"] = m.mu(k)
            values["chains"] = m.chains_with_descent_set(range(1, k + 1))
            if len(set(values.values())) != 1:
                failures.append((name, k, values))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    _report(
        3,
        "seven-matroid suite agrees six ways for every k under 60s",
        ok,
        f"failures={failures}, elapsed={elapsed:.2f}s",
    )


def test_criterion_4_balancing_suite_and_certificate():
    unbalanced = []
    for name, m in SUITE:
        fans = [("matroid_fan", matroid_fan(m))]
        r = m.rank() - 1
        for r1 in range(1, r + 1):
            for r2 in range(r1, r + 1):
                fans.append((f"T[{r1},{r2}]", truncation_weight(m, r1, r2)))
        for label, fan in fans:
            balanced, _ = is_balanced(fan)
            if not balanced:
                unbalanced.append((name, label))
    corrupted = matroid_fan(Matroid.uniform(2, 3)).reweighted((fs({0}),), 2)
    caught, certificate = is_balanced(corrupted)
    ok = not unbalanced and not caught and certificate == ()
    _report(
        4,
        "suite fans all balance; corrupted ray weights fail with a certificate",
        ok,
        f"unbalanced={unbalanced}, certificate={certificate!r}",
    )


def test_criterion_5_truncation_window_identities():
    bad = []
    for name, m in SUITE:
        r = m.rank() - 1
        alpha, beta = pl_alpha(m.n_elements), pl_beta(m.n_elements)
        for r1 in range(1, r + 1):
            for r2 in range(r1 + 1, r + 1):
                window = truncation_weight(m, r1, r2)
                if divisor(alpha, window) != truncation_weight(m, r1, r2 - 1):
                    bad.append((name, "alpha", r1, r2))
                if divisor(beta, window) != truncation_weight(m, r1 + 1, r2):
                    bad.append((name, "beta", r1, r2))
        for j in range(1, r + 1):
            window = truncation_weight(m, j, j)
            if divisor(alpha, window).weight(()) != m.mu(j - 1):
                bad.append((name, "alpha-degree", j))
            if divisor(beta, window).weight(()) != m.mu(j):
                bad.append((name, "beta-degree", j))
    _report(
        5,
        "divisors trim truncation windows cone-by-cone and close to coefficients",
        not bad,
        f"mismatches={bad}",
    )


def test_criterion_6_deletion_contraction_and_truncation():
    bad = []
    for name, m in SUITE:
        r = m.rank() - 1
        free = [
            e for e in m.elements if e not in m.loops() and e not in m.coloops()
        ]
        for e in free:
            md, mc = m.delete(e), m.contract(e)
            for k in range(r + 1):
                expected = md.mu(k) + (mc.mu(k - 1) if k >= 1 else 0)
                if m.mu(k) != expected:
                    bad.append((name, "del-contr", e, k))
        for k in range(r + 1):
            t = m
            for _ in range(r - k):
                t = t.truncate()
            lat = t.lattice()
            if lat.mobius[lat.top] != (-1) ** (k + 1) * m.mu(k):
                bad.append((name, "truncation", k))
    _report(
        6,
        "deletion-contraction and iterated-truncation identities hold",
        not bad,
        f"mismatches={bad}",
    )


def test_criterion_7_seed_invariance_and_unit_indices():
    bad = []
    for name, m in SUITE:
        for k in range(m.rank()):
            stable_values = {deg_stable(m, k, seed=s) for s in (0, 1, 2)}
            pp_values = {deg_pp(m, k, seed=s) for s in (0, 1, 2)}
            if len(stable_values) != 1 or len(pp_values) != 1:
                bad.append((name, k, "seed-dependent"))
            elif stable_values != pp_values:
                bad.append((name, k, "methods-differ"))
            points, _ = stable_intersection_points(m, k, seed=0)
            if any(p.index != 1 for p in points):
                bad.append((name, k, "non-unit index"))
    _report(
        7,
        "stable and chamber degrees agree across three seeds with unit indices",
        not bad,
        f"failures={bad}",
    )


def test_criterion_8_representative_independence():
    # deg_pp's class factors t_0 - t_last, t_first - t_0 and t_0 - t_e, and
    # deg_tropical's x_0 - min x and max x - x_0, all take element 0 as the
    # reference.  Swapping labels 0 and j makes j the reference element.
    # Every suite matroid is element-transitive; fig1 is not, and its swap
    # with j = 3 makes the pendant coloop the reference element.
    bad = []
    for name, m in SUITE + [("fig1", triangle_with_pendant())]:
        for j in range(1, m.n_elements):
            swapped = relabel(m, swap(m.n_elements, 0, j))
            for k in range(m.rank()):
                for route in (deg_pp, deg_tropical):
                    if route(swapped, k) != m.mu(k):
                        bad.append((route.__name__, name, j, k))
    for name, m in SUITE:
        n = m.n_elements
        linears = [
            pl_linear(n, {0: 1, n - 1: -1}),
            pl_linear(n, {0: 2, 1: -1, n - 1: -1}),
        ]
        fans = [matroid_fan(m)]
        if m.rank() - 1 >= 2:
            fans.append(truncation_weight(m, 2, m.rank() - 1))
        for f in linears:
            for fan in fans:
                if divisor(f, fan).weights:
                    bad.append(("linear-divisor", name))
    _report(
        8,
        "reference-element swaps shift by global linear functions with zero divisor",
        not bad,
        f"failures={bad}",
    )


def test_observational_log_concavity():
    bad = []
    for name, m in SUITE + [("fig1", triangle_with_pendant())]:
        mu = m.mu_vector()
        for k in range(1, len(mu) - 1):
            if mu[k] * mu[k] < mu[k - 1] * mu[k + 1]:
                bad.append((name, k, mu))
    verdict = "PASS" if not bad else "FAIL"
    print(f"OBSERVATION log-concavity of mu vectors: {verdict}  (suite + fig1)")
    assert not bad, bad


def test_uniform_family_six_ways():
    # mu^k(U(r, n)) = C(n - 1, k) for 0 <= k < r: every route and both
    # oracles on every U(r, n) with 1 <= r <= n <= 7, 84 (r, n, k) cases
    bad = []
    for n in range(1, 8):
        for r in range(1, n + 1):
            m = Matroid.uniform(r, n)
            for k in range(r):
                values = {meth: fn(m, k) for meth, fn in METHODS.items()}
                values["whitney"] = m.mu(k)
                values["chains"] = m.chains_with_descent_set(range(1, k + 1))
                if set(values.values()) != {math.comb(n - 1, k)}:
                    bad.append((r, n, k, values))
    assert not bad, bad
