"""The per-route timing report of tools/route_times.py."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "route_times.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_fano_reports_every_route_for_every_k():
    done = _run("fano")
    assert done.returncode == 0, done.stderr
    header, layers, fans, *rows = done.stdout.splitlines()
    assert header == "fano  n=7 r=2  ms per call, best of 5 batches of 10 ms"
    stages = "  ".join(rf"{stage} \d+\.\d{{3}}" for stage in ("construct", "lattice", "char_poly"))
    assert re.fullmatch(rf"  {stages}", layers), layers
    assert re.fullmatch(r"  matroid_fan \d+\.\d{3}  balancing \d+\.\d{3}", fans), fans
    assert len(rows) == 3
    routes = ("lex", "pp", "stable", "tropical", "chains")
    cells = "  ".join(rf"{route} \d+\.\d{{3}}" for route in routes)
    for k, row in enumerate(rows):
        assert re.fullmatch(rf"  k={k}  {cells}", row), row


def test_unknown_rung_is_a_usage_error():
    done = _run("fano", "K8")
    assert (done.returncode, done.stdout) == (2, "")
    assert "unknown rung 'K8'" in done.stderr
