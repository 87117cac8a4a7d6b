"""Import the benchmark modules and the library from this checkout."""
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
