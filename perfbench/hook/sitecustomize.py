"""Ledger hook for processes the benchmark does not start itself.

On ``PYTHONPATH`` only for traced service-mix runs: when
``PERFBENCH_SPAN_DIR`` is set, every Python process that starts (the
server and each job subprocess it spawns) streams its place spans and
its lifetime to that directory.  See ``ledger.instrument_process``.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPAN_DIR"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import ledger

    ledger.instrument_process(os.environ["PERFBENCH_SPAN_DIR"])
