"""Time the bytecode compilation of each module in src/matchow.

An interpreter that finds no bytecode cache, as under
PYTHONDONTWRITEBYTECODE=1, compiles every module it imports, so this cost
is part of each fresh `import matchow.cli`.  For each module the source is
read once and passed to `compile()` REPEATS times; the best time is
printed, in milliseconds, then the total of the best times.  Standard
library only; it takes no arguments.

    python3 tools/compile_cost.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPEATS = 20
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchow"


def best_compile_s(source: str, filename: str) -> float:
    """The least wall time of REPEATS compilations of one module's source."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        compile(source, filename, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    total = 0.0
    for path in sorted(PACKAGE.glob("*.py")):
        seconds = best_compile_s(path.read_text(), str(path))
        total += seconds
        print(f"{seconds * 1e3:8.3f} ms  {path.name}")
    print(f"{total * 1e3:8.3f} ms  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
