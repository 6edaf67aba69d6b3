"""Every route and oracle gives the same mu^k on a relabelled matroid.

A relabelling keeps the matroid up to isomorphism, so mu^k stays, but it
changes which element is the reference element 0, the element order that
flags, greedy bases and Jordan-Hoelder labels follow, and every mask.
"""

from __future__ import annotations

import random

import pytest

from matchow import deg_lex, deg_pp, deg_stable, deg_tropical, triangle_with_pendant

from conftest import SUITE, relabel

CASES = SUITE + [("fig1", triangle_with_pendant())]
ROUTES = (deg_lex, deg_pp, deg_stable, deg_tropical)


@pytest.mark.parametrize("m", [m for _, m in CASES], ids=[name for name, _ in CASES])
def test_routes_and_oracles_ignore_relabelling(m):
    expected = m.mu_vector()
    for seed in range(3):
        perm = random.Random(seed).sample(m.elements, m.n_elements)
        relabelled = relabel(m, perm)
        assert relabelled.mu_vector() == expected, perm
        for k, mu in enumerate(expected):
            values = [route(relabelled, k) for route in ROUTES]
            values.append(relabelled.chains_with_descent_set(range(1, k + 1)))
            assert values == [mu] * 5, (perm, k)
