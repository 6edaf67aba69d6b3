"""Time the bytecode compilation of each module in src/matchow.

An interpreter that finds no bytecode cache, as under
PYTHONDONTWRITEBYTECODE=1, compiles every module it imports, so this cost
is part of each fresh `import matchow.cli`.  For each module the source is
read once and passed to `compile()` REPEATS times; the best time is
printed, in milliseconds, then the total of the best times, then the sum
over the modules that a bare `import matchow.cli` loads, as a child
interpreter's `sys.modules` lists them; the routes load on first use and
are left out of it.  Standard library only; it takes no arguments.

    python3 tools/compile_cost.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 20
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchow"
CLI_PROBE = (
    "import sys, matchow.cli; "
    "print(*sorted(m.__file__ for n, m in sys.modules.items() if n.split('.')[0] == 'matchow'),"
    " sep='\\n')"
)


def best_compile_s(source: str, filename: str) -> float:
    """The least wall time of REPEATS compilations of one module's source."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        compile(source, filename, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best


def cli_import_modules() -> list:
    """The file names of the package modules a bare `import matchow.cli` loads."""
    done = subprocess.run(
        [sys.executable, "-c", CLI_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    return [Path(file).name for file in done.stdout.splitlines()]


def main() -> int:
    best = {}
    for path in sorted(PACKAGE.glob("*.py")):
        best[path.name] = best_compile_s(path.read_text(), str(path))
        print(f"{best[path.name] * 1e3:8.3f} ms  {path.name}")
    print(f"{sum(best.values()) * 1e3:8.3f} ms  total")
    loaded = cli_import_modules()
    cli_s = sum(best[name] for name in loaded)
    print(f"{cli_s * 1e3:8.3f} ms  import matchow.cli ({', '.join(loaded)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
