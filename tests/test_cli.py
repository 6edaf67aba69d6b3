"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import matchow.cli as cli
import matchow.fan as fan_mod
from matchow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_builtin_fano(capsys):
    code, out, _ = run(capsys, "invariants", "--builtin", "fano")
    assert code == 0
    assert "mu vector: 1 6 8" in out
    assert "char poly: q^3 - 7*q^2 + 14*q - 8" in out
    assert "flats by rank: 0: 1, 1: 7, 2: 7, 3: 1" in out


def test_invariants_json_schema(capsys):
    code, out, _ = run(capsys, "invariants", "--uniform", "2", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matroid"] == "uniform(2,3)"
    assert payload["mu"] == ["1", "2"]
    assert payload["flats_by_rank"] == [1, 3, 1]


def test_invariants_reports_loops_without_failing(capsys, tmp_path):
    graph = tmp_path / "looped.json"
    graph.write_text(json.dumps({"edges": [[0, 0], [0, 1]]}))
    code, out, _ = run(capsys, "invariants", "--graph", str(graph))
    assert code == 0
    assert "loops: [0]" in out
    assert "mu vector" not in out


# ---------------------------------------------------------------------------
# deg
# ---------------------------------------------------------------------------


def test_deg_text_output(capsys):
    code, out, _ = run(
        capsys, "deg", "--uniform", "2", "3", "--k", "1", "--method", "lex"
    )
    assert code == 0
    assert "deg(uniform(2,3), k=1, lex) = 2" in out


@pytest.mark.parametrize("method", ["lex", "pp", "stable", "tropical"])
def test_deg_json_schema(capsys, method):
    code, out, _ = run(
        capsys,
        "deg", "--builtin", "fig1", "--k", "2", "--method", method, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"matroid", "k", "method", "value", "seed", "elapsed_ms"}
    assert payload["value"] == "2"
    assert payload["k"] == 2
    assert payload["method"] == method
    assert payload["seed"] == 0


def test_deg_json_reproducible_modulo_elapsed(capsys):
    args = ("deg", "--builtin", "k4", "--k", "1", "--method", "stable",
            "--seed", "7", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    p1.pop("elapsed_ms")
    p2.pop("elapsed_ms")
    assert p1 == p2
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


def test_deg_k_out_of_range_is_usage_error(capsys):
    code, _, err = run(
        capsys, "deg", "--builtin", "fano", "--k", "7", "--method", "lex"
    )
    assert code == 2
    assert "k=7" in err


def test_deg_loops_exit_code(capsys, tmp_path):
    graph = tmp_path / "looped.txt"
    graph.write_text("0 0\n0 1\n")
    code, _, err = run(
        capsys, "deg", "--graph", str(graph), "--k", "0", "--method", "lex"
    )
    assert code == 4
    assert "loopless" in err


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def test_crosscheck_fig1_graph_text_format(capsys, tmp_path):
    graph = tmp_path / "fig1.txt"
    graph.write_text("a b\nb c\nc a\nc d\n")
    code, out, _ = run(capsys, "crosscheck", "--graph", str(graph))
    assert code == 0
    assert out.rstrip().endswith("PASS")
    assert "mu vector: 1 3 2" in out
    assert "reduced char poly: q^2 - 3*q + 2" in out


def test_crosscheck_json(capsys):
    code, out, _ = run(capsys, "crosscheck", "--uniform", "2", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["mu"] == ["1", "3"]
    assert payload["methods"] == ["lex", "pp", "stable", "tropical"]
    assert payload["oracles"] == ["whitney", "chains"]
    for row in payload["rows"]:
        assert row["agree"] is True


def test_crosscheck_skip_leaves_enough_methods(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--uniform", "2", "3", "--skip", "stable",
        "--skip", "pp",
    )
    assert code == 0
    assert "stable" not in out.splitlines()[1]

    code, _, err = run(
        capsys, "crosscheck", "--uniform", "2", "3",
        "--skip", "stable", "--skip", "pp", "--skip", "tropical",
    )
    assert code == 2
    assert "at least two" in err


def test_crosscheck_detects_method_mismatch(capsys, monkeypatch):
    broken = dict(cli.METHODS)
    broken["lex"] = lambda m, k, seed: 999
    monkeypatch.setattr(cli, "METHODS", broken)
    code, out, err = run(capsys, "crosscheck", "--uniform", "2", "3")
    assert code == 5
    assert "MISMATCH" in out
    assert out.rstrip().endswith("FAIL: methods disagree")
    # the witness: one stderr line per disagreeing k, with both values
    assert err == (
        "mismatch at k=0: lex = 999 against whitney = 1\n"
        "mismatch at k=1: lex = 999 against whitney = 2\n"
    )


# ---------------------------------------------------------------------------
# balancing
# ---------------------------------------------------------------------------


def test_balancing_builtin_k4(capsys):
    code, out, _ = run(capsys, "balancing", "--builtin", "k4")
    assert code == 0
    assert "matroid_fan: balanced (18 cones)" in out
    assert "truncation[1,2]: balanced" in out
    assert out.rstrip().endswith("PASS")


def test_balancing_walks_each_fan_once(capsys, monkeypatch):
    # k4 has the matroid fan and three truncation windows
    real = fan_mod.face_stars
    calls = []

    def counting(fan):
        calls.append(fan)
        return real(fan)

    monkeypatch.setattr(fan_mod, "face_stars", counting)
    code, out, _ = run(capsys, "balancing", "--builtin", "k4")
    assert code == 0
    assert out.rstrip().endswith("PASS")
    assert len(calls) == 4


def test_balancing_json(capsys):
    code, out, _ = run(capsys, "balancing", "--uniform", "2", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [f["fan"] for f in payload["fans"]] == ["matroid_fan", "truncation[1,1]"]


# ---------------------------------------------------------------------------
# loading errors
# ---------------------------------------------------------------------------


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "invariants", "--bases", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "invariants", "--bases", str(path))
    assert code == 2


def test_bases_file_without_keys_is_exit_2(capsys, tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"bases": [[0]]}))
    code, _, err = run(capsys, "invariants", "--bases", str(path))
    assert code == 2
    assert "n_elements" in err


def test_exchange_violation_is_exit_3(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"n_elements": 4, "bases": [[0, 1], [2, 3]]}))
    code, _, err = run(capsys, "invariants", "--bases", str(path))
    assert code == 3
    assert "axioms" in err


def test_bases_file_roundtrip(capsys, tmp_path):
    path = tmp_path / "u24.json"
    path.write_text(
        json.dumps({"n_elements": 4, "bases": [[a, b] for a in range(4) for b in range(a + 1, 4)]})
    )
    code, out, _ = run(capsys, "crosscheck", "--bases", str(path))
    assert code == 0
    assert "mu vector: 1 3" in out


def test_bases_bool_element_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"n_elements": 2, "bases": [[True]]}))
    code, out, err = run(capsys, "invariants", "--bases", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: element True is not an integer in 0..1\n"


def test_bases_repeated_element_is_exit_2(capsys, tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"n_elements": 3, "bases": [[0, 0]]}))
    code, out, err = run(capsys, "invariants", "--bases", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: basis [0, 0] lists an element twice\n"


@pytest.mark.parametrize("bases", [[[0, 1], [0, 1]], [[0, 1], [1, 0]]])
def test_bases_repeated_basis_is_exit_2(capsys, tmp_path, bases):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"n_elements": 2, "bases": bases}))
    code, out, err = run(capsys, "invariants", "--bases", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: basis [0, 1] is listed twice\n"


U23_BASES = [[0, 1], [0, 2], [1, 2]]


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--bases", {"n_elements": 3.9, "bases": U23_BASES}),
        ("--bases", {"n_elements": True, "bases": [[0]]}),
        ("--bases", {"n_elements": "3", "bases": U23_BASES}),
        ("--bases", {"n_elements": -1, "bases": [[]]}),
        ("--bases", {"n_elements": 3, "bases": 5}),
        ("--bases", {"n_elements": 3, "bases": [5]}),
        ("--graph", {"edges": [5]}),
        ("--graph", {"edges": [[0, [1]]]}),
        ("--bases", {"n_elements": 3, "bases": U23_BASES, "name": "u23"}),
        ("--graph", {"edges": [[0, 1]], "weights": [1]}),
    ],
    ids=[
        "n-float", "n-bool", "n-string", "n-negative",
        "bases-int", "basis-int", "edge-int", "edge-nested",
        "bases-unknown-key", "graph-unknown-key",
    ],
)
def test_malformed_file_is_exit_2(capsys, tmp_path, flag, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "invariants", flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_file_key_is_named(capsys, tmp_path):
    path = tmp_path / "input.json"
    for flag, payload, key in (
        ("--bases", {"bases": U23_BASES, "n_elements": 3, "rank": 2}, "'rank'"),
        ("--graph", {"vertices": 3, "edges": [[0, 1]]}, "'vertices'"),
    ):
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "invariants", flag, str(path))
        assert (code, out) == (2, ""), flag
        assert err.startswith("error: ") and err.count("\n") == 1, flag
        assert f"unknown key {key}" in err, flag


def test_unmapped_exception_is_one_line_exit_5(capsys, monkeypatch):
    def fail(m, k, seed):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli.METHODS, "lex", fail)
    code, out, err = run(
        capsys, "deg", "--uniform", "2", "3", "--k", "0", "--method", "lex"
    )
    assert code == 5
    assert out == ""
    assert err == "internal error: RuntimeError: unexpected\n"


def test_value_error_inside_a_route_is_internal_exit_5(capsys, monkeypatch):
    # only the input boundary maps ValueError to a usage error
    def fail(m, k, seed):
        raise ValueError("bad displacement")

    monkeypatch.setitem(cli.METHODS, "lex", fail)
    for args in (
        ("deg", "--uniform", "2", "3", "--k", "0", "--method", "lex"),
        ("crosscheck", "--uniform", "2", "3"),
    ):
        code, out, err = run(capsys, *args)
        assert code == 5, args
        assert out == "", args
        assert err == "internal error: ValueError: bad displacement\n", args


def test_empty_ground_set_invariants(capsys):
    code, out, err = run(capsys, "invariants", "--uniform", "0", "0")
    assert code == 0
    assert err == ""
    assert "char poly: 1" in out
    assert "no reduced polynomial" in out
    assert "mu vector" not in out


def test_empty_ground_set_deg_is_exit_2(capsys):
    for method in ("lex", "pp", "stable", "tropical"):
        code, out, err = run(
            capsys, "deg", "--uniform", "0", "0", "--k", "0", "--method", method
        )
        assert code == 2, method
        assert out == "", method
        assert err.startswith("error: ") and err.count("\n") == 1, method
        assert "rank-0" in err, method


def test_empty_ground_set_crosscheck_is_exit_2(capsys, tmp_path):
    graph = tmp_path / "empty.json"
    graph.write_text(json.dumps({"edges": []}))
    code, out, err = run(capsys, "crosscheck", "--graph", str(graph))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "rank-0" in err


def test_empty_ground_set_balancing_is_exit_2(capsys, tmp_path):
    graph = tmp_path / "empty.json"
    graph.write_text(json.dumps({"edges": []}))
    for source in (["--uniform", "0", "0"], ["--graph", str(graph)]):
        code, out, err = run(capsys, "balancing", *source)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rank-0" in err


def test_balancing_on_a_looped_graph_is_exit_4_with_the_guard_line(capsys, tmp_path):
    graph = tmp_path / "looped.txt"
    graph.write_text("0 1\n1 1\n")
    code, out, err = run(capsys, "balancing", "--graph", str(graph))
    assert (code, out) == (4, "")
    assert err == "error: element 1 is a loop; a loopless matroid is required\n"


def test_balancing_keeps_one_fan_alive(capsys, monkeypatch):
    # every fan must be dropped before the next one is built
    class Tracked(fan_mod.WeightedFan):
        __slots__ = ("__weakref__",)

    refs = []
    alive_at_build = []

    def tracked(build):
        def wrapper(*args):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            fan = build(*args)
            copy = Tracked._from_masks(fan.n_elements, fan.dim, fan.weights)
            refs.append(weakref.ref(copy))
            return copy

        return wrapper

    monkeypatch.setattr(cli, "matroid_fan", tracked(cli.matroid_fan))
    monkeypatch.setattr(cli, "truncation_weight", tracked(cli.truncation_weight))
    code, out, _ = run(capsys, "balancing", "--builtin", "fano")
    assert code == 0 and out.endswith("PASS\n")
    # the matroid fan, then the windows [1,1], [1,2] and [2,2]
    assert alive_at_build == [0, 0, 0, 0]


def test_uniform_bad_rank_is_exit_2(capsys):
    code, _, _ = run(capsys, "invariants", "--uniform", "5", "3")
    assert code == 2


def test_missing_required_flag_is_usage_exit_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["deg", "--builtin", "fano", "--method", "lex"])
    assert exc_info.value.code == 2


def test_console_entry_point_runs():
    # the child interpreter finds matchow only through PYTHONPATH
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "matchow.cli", "deg", "--builtin", "fano",
         "--k", "2", "--method", "tropical", "--json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["value"] == "8"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI call pays for what importing matchow.cli pulls in
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import sys, matchow.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


ROUTE_MODULES = ("matchow.chowlex", "matchow.fan", "matchow.piecewise", "matchow.stable",
                 "matchow.tropical", "matchow.exact", "fractions", "decimal")

# after the bare import, then after each request in turn: which route modules
# and number types are loaded
LAZY_PROBE = f"""
import io, json, sys
from contextlib import redirect_stdout
watched = {ROUTE_MODULES!r}
loaded = lambda: sorted(set(watched) & set(sys.modules))
import matchow.cli
seen = [loaded()]
for argv in (["invariants", "--builtin", "fano"],
             ["deg", "--builtin", "fano", "--k", "1", "--method", "lex"]):
    with redirect_stdout(io.StringIO()):
        assert matchow.cli.main(argv) == 0
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_a_request_imports_only_the_route_it_runs():
    # the routes load on first call, so no CLI call compiles the routes it skips
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", LAZY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    after_import, after_invariants, after_lex = json.loads(result.stdout)
    assert after_import == []
    assert after_invariants == []
    assert after_lex == ["matchow.chowlex"]
