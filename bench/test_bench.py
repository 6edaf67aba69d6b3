"""Self-test of the benchmark's reference answers, checks and span arithmetic.

Run with `python3 -m pytest bench/test_bench.py` (src/ on PYTHONPATH for the
interposition test).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize(
    "edges, mu, flags",
    [
        (workloads.K4, (1, 5, 6), 18),
        (workloads.K5, (1, 9, 26, 24), 180),
        (workloads.DOMINO, (1, 6, 15, 18, 9), 504),
        (workloads.FIG1, (1, 3, 2), 9),
    ],
)
def test_graphic_reference(edges, mu, flags):
    exp = reference.graphic(edges)
    assert exp.mu == mu
    assert exp.complete_flags == flags
    assert exp.flats_by_rank[0] == exp.flats_by_rank[-1] == 1


def test_graphic_and_uniform_references_agree_on_the_triangle():
    assert reference.graphic([(0, 1), (1, 2), (0, 2)]) == reference.uniform(2, 3)


def test_fano_reference_and_bases():
    exp = reference.fano()
    assert exp.mu == (1, 6, 8)
    assert reference.poly_text(exp.char_poly) == "q^3 - 7*q^2 + 14*q - 8"
    assert len(workloads.fano_bases()) == 28


def test_uniform_reference_closed_form():
    exp = reference.uniform(2, 4)
    assert exp.mu == (1, 3)
    assert exp.flats_by_rank == (1, 4, 1)
    assert reference.poly_text(exp.char_poly) == "q^2 - 4*q + 3"


def test_spanning_trees_of_k5_and_w5():
    assert len(workloads.spanning_trees(workloads.K5)) == 125
    assert len(workloads.spanning_trees(workloads.W5)) == 121


@pytest.mark.parametrize("n, rank", [(11, 0), (26, 15), (29, 18), (100, 89)])
def test_tail_percentile_leaves_ten_samples_beyond(n, rank):
    assert run.tail_rank(n) == rank
    assert n - 1 - rank == 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_rank(10)


def test_deg_check_accepts_only_the_reference_value():
    check = workloads.check_deg(reference.fano(), 2, "lex")
    good = {"k": 2, "method": "lex", "value": "8"}
    assert check(0, json.dumps(good)) is None
    assert "value" in check(0, json.dumps(dict(good, value="7")))
    assert "exit code" in check(5, json.dumps(good))
    assert "not JSON" in check(0, "deg = 8")


def test_self_times_partition_the_root_span():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    def inner():
        return tracer.call("b.leaf", leaf) + sum(range(20000))

    tracer.call("cli.request", lambda: tracer.call("a.inner", inner))
    selfs = tracer.self_times()
    name, start, end, parent = tracer.spans[0]
    assert parent == -1 and name == "cli.request"
    assert sum(selfs.values()) == pytest.approx(end - start)
    assert all(t >= 0 for t in selfs.values())
    assert tracer.inclusive_share({"a"}, end - start) <= 1.0


def test_install_then_remove_restores_every_function():
    pytest.importorskip("matchow")
    import matchow.cli as cli
    import matchow.stable as stable
    from matchow.matroid import Matroid

    before = (cli.deg_stable, stable.solve_linear, Matroid.__dict__["from_graph"])
    tracer = Tracer()
    tracer.install()
    assert cli.deg_stable is not before[0]
    assert Matroid.uniform(2, 3).mu_vector() == (1, 2)
    assert tracer.counts["matroid.construct_calls"] == 1
    tracer.remove()
    assert (cli.deg_stable, stable.solve_linear, Matroid.__dict__["from_graph"]) == before
