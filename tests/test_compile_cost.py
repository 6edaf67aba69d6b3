"""The compile-time report of tools/compile_cost.py."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compile_cost.py"


def test_reports_one_line_per_module_then_the_total():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    *lines, last = done.stdout.splitlines()
    modules = sorted(path.name for path in (ROOT / "src" / "matchow").glob("*.py"))
    parsed = [re.fullmatch(r" *(\d+\.\d{3}) ms  (\S+)", line) for line in lines]
    assert all(parsed), lines
    assert [m.group(2) for m in parsed] == modules + ["total"]
    times = [float(m.group(1)) for m in parsed]
    assert abs(sum(times[:-1]) - times[-1]) <= 0.001 * len(modules)

    # the last line sums the modules a bare `import matchow.cli` loads
    cli = re.fullmatch(r" *(\d+\.\d{3}) ms  import matchow\.cli \((.+)\)", last)
    assert cli, last
    loaded = cli.group(2).split(", ")
    assert "cli.py" in loaded and set(loaded) < set(modules)
    cli_ms = float(cli.group(1))
    assert cli_ms <= times[-1]
    best = dict(zip(modules, times))
    assert abs(sum(best[name] for name in loaded) - cli_ms) <= 0.001 * len(loaded)
