"""Shared fixtures: the verification suite of matroids used across tests."""

from __future__ import annotations

from typing import Sequence

import pytest

from matchow import Matroid, complete_graph_k4, triangle_with_pendant


def suite_matroids() -> list[tuple[str, Matroid]]:
    """The cross-validation suite: classical small matroids, all loopless."""
    return [
        ("uniform(2,3)", Matroid.uniform(2, 3)),
        ("uniform(2,4)", Matroid.uniform(2, 4)),
        ("uniform(3,4)", Matroid.uniform(3, 4)),
        ("boolean(3)", Matroid.boolean(3)),
        ("boolean(4)", Matroid.boolean(4)),
        ("k4", complete_graph_k4()),
        ("fano", Matroid.fano()),
    ]


def relabel(m: Matroid, perm: Sequence[int]) -> Matroid:
    """m with each element e renamed perm[e]; perm permutes 0..n-1."""
    return Matroid(m.n_elements, [[perm[e] for e in b] for b in m.bases])


def swap(n_elements: int, i: int, j: int) -> list[int]:
    """The permutation of 0..n-1 that exchanges i and j."""
    perm = list(range(n_elements))
    perm[i], perm[j] = j, i
    return perm


SUITE = suite_matroids()
SUITE_IDS = [name for name, _ in SUITE]
SUITE_MATROIDS = [m for _, m in SUITE]


@pytest.fixture(params=SUITE_MATROIDS, ids=SUITE_IDS)
def suite_matroid(request) -> Matroid:
    return request.param


@pytest.fixture
def fig1() -> Matroid:
    return triangle_with_pendant()
