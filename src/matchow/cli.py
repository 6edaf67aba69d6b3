"""Command-line interface.

Subcommands:
  invariants   flats per rank, Moebius numbers, characteristic polynomials
  deg          one coefficient by one method
  crosscheck   all methods and both combinatorial oracles, with a PASS verdict
  balancing    verify the matroid fan and every truncation window balance

Exit codes: 0 success, 2 parse/usage errors, 3 matroid axiom violations,
4 loops where a loopless matroid is required, 5 value mismatches, failed
balancing (a certificate cone is printed) or any other internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from .chowlex import deg_lex
from .errors import (
    DegeneratePoint,
    DegenerateSystem,
    EmptyBases,
    ExchangeViolation,
    KOutOfRange,
    LoopContract,
    LoopPresent,
    NotFullRank,
    RangeError,
    Unbalanced,
)
from .fan import is_balanced, matroid_fan
from .matroid import BUILTIN_MATROIDS, Matroid, builtin, poly_q_str
from .piecewise import deg_pp
from .stable import deg_stable
from .tropical import deg_tropical, truncation_weight

METHODS: Dict[str, Callable] = {
    "lex": lambda m, k, seed: deg_lex(m, k),
    "pp": lambda m, k, seed: deg_pp(m, k, seed=seed),
    "stable": lambda m, k, seed: deg_stable(m, k, seed=seed),
    "tropical": lambda m, k, seed: deg_tropical(m, k),
}

ORACLES: Dict[str, Callable] = {
    "whitney": lambda m, k: m.mu(k),
    "chains": lambda m, k: m.chains_with_descent_set(range(1, k + 1)),
}


def _add_matroid_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--bases", metavar="FILE", help="JSON {n_elements, bases}")
    group.add_argument(
        "--graph", metavar="FILE", help="JSON {edges: [[u,v],...]} or 'u v' lines"
    )
    group.add_argument(
        "--uniform", nargs=2, type=int, metavar=("RANK", "N"), help="uniform matroid"
    )
    group.add_argument(
        "--builtin", choices=sorted(BUILTIN_MATROIDS), help="a named example matroid"
    )


def _load_matroid(args) -> tuple[Matroid, str]:
    if args.builtin:
        return builtin(args.builtin), args.builtin
    if args.uniform:
        rank, n = args.uniform
        return Matroid.uniform(rank, n), f"uniform({rank},{n})"
    if args.bases:
        with open(args.bases) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "n_elements" not in data or "bases" not in data:
            raise ValueError("bases file must be a JSON object with n_elements and bases")
        n, bases = data["n_elements"], data["bases"]
        # bool is an int subclass, and int() would truncate 3.9 or parse "3"
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n_elements must be a JSON integer, got {n!r}")
        if not isinstance(bases, list) or not all(isinstance(b, list) for b in bases):
            raise ValueError("bases must be a list of lists of elements")
        m = Matroid(n, bases)
        return m, f"bases[n={m.n_elements},rank={m.rank()}]"
    with open(args.graph) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = [line.split() for line in text.splitlines() if line.split()]
    if isinstance(data, dict):
        data = data.get("edges")
    if not isinstance(data, list):
        raise ValueError("graph file must give an edge list")
    m = Matroid.from_graph(data)
    return m, f"graph[edges={m.n_elements}]"


def _emit(payload: dict, as_json: bool, lines: List[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_invariants(args) -> int:
    m, name = _load_matroid(args)
    lat = m.lattice()
    rank = m.rank()
    char = poly_q_str(m.char_poly())
    flats = [len(level) for level in lat.flats_by_rank]
    mobius = [sorted(lat.mobius[f] for f in level) for level in lat.flats_by_rank]
    lines = [
        f"matroid: {name}  (n_elements={m.n_elements}, rank={rank})",
        "flats by rank: " + ", ".join(f"{rk}: {count}" for rk, count in enumerate(flats)),
        "moebius by rank: " + "; ".join(f"{rk}: {values}" for rk, values in enumerate(mobius)),
        f"char poly: {char}",
    ]
    payload = {
        "matroid": name,
        "n_elements": m.n_elements,
        "rank": rank,
        "flats_by_rank": flats,
        "mobius_by_rank": mobius,
        "char_poly": char,
    }
    if not m.is_loopless():
        loops = sorted(m.loops())
        lines.append(f"loops: {loops} (no reduced polynomial)")
        payload["loops"] = loops
    elif rank == 0:
        lines.append("rank 0: chi(q) = 1 is not divisible by q - 1 (no reduced polynomial)")
    else:
        reduced = poly_q_str(m.reduced_char_poly())
        mu = [str(v) for v in m.mu_vector()]
        lines.append(f"reduced char poly: {reduced}")
        lines.append("mu vector: " + " ".join(mu))
        payload["reduced_char_poly"] = reduced
        payload["mu"] = mu
    _emit(payload, args.json, lines)
    return 0


def cmd_deg(args) -> int:
    m, name = _load_matroid(args)
    started = time.perf_counter()
    value = METHODS[args.method](m, args.k, args.seed)
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
    payload = {
        "matroid": name,
        "k": args.k,
        "method": args.method,
        "value": str(value),
        "seed": args.seed,
        "elapsed_ms": elapsed_ms,
    }
    _emit(
        payload,
        args.json,
        [f"deg({name}, k={args.k}, {args.method}) = {value}  [{elapsed_ms} ms]"],
    )
    return 0


def cmd_crosscheck(args) -> int:
    m, name = _load_matroid(args)
    methods = [meth for meth in METHODS if meth not in set(args.skip or [])]
    if len(methods) < 2:
        raise ValueError("crosscheck needs at least two methods after --skip")
    started = time.perf_counter()
    r = m.rank() - 1
    rows = []
    all_agree = True
    for k in range(r + 1):
        row: Dict[str, object] = {"k": k}
        values = set()
        for meth in methods:
            v = METHODS[meth](m, k, args.seed)
            row[meth] = str(v)
            values.add(v)
        for oracle, fn in ORACLES.items():
            v = fn(m, k)
            row[oracle] = str(v)
            values.add(v)
        row["agree"] = len(values) == 1
        all_agree = all_agree and row["agree"]
        rows.append(row)
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
    columns = methods + list(ORACLES)
    lines = [f"crosscheck {name}  (seed={args.seed})"]
    header = "k  " + "  ".join(f"{c:>8}" for c in columns) + "  verdict"
    lines.append(header)
    for row in rows:
        verdict = "ok" if row["agree"] else "MISMATCH"
        lines.append(
            f"{row['k']}  "
            + "  ".join(f"{row[c]:>8}" for c in columns)
            + f"  {verdict}"
        )
    mu = [str(v) for v in m.mu_vector()]
    reduced = poly_q_str(m.reduced_char_poly())
    lines.append(f"mu vector: {' '.join(mu)}")
    lines.append(f"reduced char poly: {reduced}")
    lines.append("PASS" if all_agree else "FAIL: methods disagree")
    payload = {
        "matroid": name,
        "seed": args.seed,
        "methods": methods,
        "oracles": list(ORACLES),
        "rows": rows,
        "char_poly": poly_q_str(m.char_poly()),
        "reduced_char_poly": reduced,
        "mu": mu,
        "pass": all_agree,
        "elapsed_ms": elapsed_ms,
    }
    _emit(payload, args.json, lines)
    return 0 if all_agree else 5


def cmd_balancing(args) -> int:
    m, name = _load_matroid(args)
    r = m.rank() - 1
    checks: List[tuple[str, object]] = [("matroid_fan", matroid_fan(m))]
    for r1 in range(1, r + 1):
        for r2 in range(r1, r + 1):
            checks.append((f"truncation[{r1},{r2}]", truncation_weight(m, r1, r2)))
    lines = [f"balancing {name}"]
    results = []
    ok_all = True
    for label, fan in checks:
        ok, certificate = is_balanced(fan)
        ok_all = ok_all and ok
        cert = None if ok else [sorted(s) for s in certificate]
        if ok:
            lines.append(f"{label}: balanced ({len(fan.weights)} cones)")
        else:
            lines.append(f"{label}: NOT balanced, certificate cone {cert}")
        results.append(
            {"fan": label, "balanced": ok, "cones": len(fan.weights), "certificate": cert}
        )
    lines.append("PASS" if ok_all else "FAIL")
    payload = {"matroid": name, "fans": results, "pass": ok_all}
    _emit(payload, args.json, lines)
    return 0 if ok_all else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchow",
        description="Matroid characteristic polynomial coefficients, four ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="lattice and polynomial summary")
    _add_matroid_flags(p_inv)
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(fn=cmd_invariants)

    p_deg = sub.add_parser("deg", help="one coefficient by one method")
    _add_matroid_flags(p_deg)
    p_deg.add_argument("--k", type=int, required=True)
    p_deg.add_argument("--method", choices=sorted(METHODS), required=True)
    p_deg.add_argument("--seed", type=int, default=0)
    p_deg.add_argument("--json", action="store_true")
    p_deg.set_defaults(fn=cmd_deg)

    p_cross = sub.add_parser("crosscheck", help="all methods against the oracles")
    _add_matroid_flags(p_cross)
    p_cross.add_argument("--seed", type=int, default=0)
    p_cross.add_argument(
        "--skip",
        action="append",
        choices=sorted(METHODS),
        help="leave a method out (repeatable; at least two must remain)",
    )
    p_cross.add_argument("--json", action="store_true")
    p_cross.set_defaults(fn=cmd_crosscheck)

    p_bal = sub.add_parser("balancing", help="balancing checks with certificates")
    _add_matroid_flags(p_bal)
    p_bal.add_argument("--json", action="store_true")
    p_bal.set_defaults(fn=cmd_balancing)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, ValueError, KOutOfRange, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmptyBases, ExchangeViolation) as exc:
        print(f"error: matroid axioms violated: {exc}", file=sys.stderr)
        return 3
    except (LoopPresent, LoopContract) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Unbalanced as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (AssertionError, DegenerateSystem, DegeneratePoint, NotFullRank) as exc:
        print(f"internal cross-assertion failed: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # anything unforeseen still gets one line, not a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
