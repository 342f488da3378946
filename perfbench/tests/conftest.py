"""Put the benchmark's modules and the package under test on sys.path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src", HERE.parent.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
