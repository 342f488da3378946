"""Live-bit decode harness: the decode tables vs the recursive reference.

Times the cold decode of the ``seu-serial`` live candidates (MULT6/S12,
stride 3: every candidate the golden live-bit mask does not settle) on
two paths, each on a fresh ``implement``:

* ``table`` — :meth:`DecodedDesign.patch_for_bit`; the timed region
  starts with building its decode tables (which the first call would
  otherwise do), timed apart as well;
* ``reference`` — the recursive per-bit re-resolution it replaced
  (``tests/utils/patch_reference.py``).

Rounds alternate the two paths.  Both must return the same patches,
entry for entry (one digest per path); the per-round timings, their
medians and the table-build share go to ``BENCH_decode.json``.  No
speed floor: the record is for reading, the digest check is the gate.

``REPRO_BENCH_DIR`` picks the directory for ``BENCH_decode.json``
(default: current directory).
"""

import hashlib
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

if str(REPO) not in sys.path:  # the reference path lives in tests/utils
    sys.path.insert(0, str(REPO))
from tests.utils.goldens import patch_entries  # noqa: E402
from tests.utils.patch_reference import ReferencePatcher  # noqa: E402

STRIDE = 3
ROUNDS = 3
PATHS = ("table", "reference")


def _decode(path: str) -> tuple[float, float, int, str]:
    """(decode seconds, table-build seconds, live bits, patch digest) of
    one cold decode on ``path``."""
    from repro.designs import array_multiplier
    from repro.fpga import get_device
    from repro.place import implement

    hw = implement(array_multiplier(6), get_device("S12"))
    dec = hw.decoded
    cands = np.arange(0, dec.bits.bits.size, STRIDE)
    live = cands[dec.live_bits[cands]].tolist()
    patch_for_bit = dec.patch_for_bit if path == "table" else ReferencePatcher(dec).patch_for_bit
    t0 = time.perf_counter()
    if path == "table":
        dec._tables
    build = time.perf_counter() - t0
    patches = [patch_for_bit(bit) for bit in live]
    seconds = time.perf_counter() - t0
    h = hashlib.sha256()
    for patch in patches:
        h.update(repr(patch_entries(patch)).encode())
    return seconds, build, len(live), h.hexdigest()


def test_live_bit_decode(report, bench_record):
    times: dict[str, list[float]] = {p: [] for p in PATHS}
    builds: list[float] = []
    digests: dict[str, set[str]] = {p: set() for p in PATHS}
    n_live = 0
    for r in range(ROUNDS):
        for path in PATHS if r % 2 == 0 else PATHS[::-1]:
            seconds, build, n_live, digest = _decode(path)
            times[path].append(seconds)
            digests[path].add(digest)
            if path == "table":
                builds.append(build)
    assert len(digests["table"]) == 1 and digests["table"] == digests["reference"]

    medians = {p: statistics.median(times[p]) for p in PATHS}
    rows = [
        {
            "label": f"decode:{path}",
            "design": "MULT6",
            "device": "S12",
            "stride": STRIDE,
            "live_bits": n_live,
            "seconds": times[path],
            "median_seconds": medians[path],
            "us_per_bit": 1e6 * medians[path] / n_live,
        }
        for path in PATHS
    ]
    rows.append(
        {
            "label": "speedup",
            "table_build_seconds": statistics.median(builds),
            "reference_over_table": medians["reference"] / medians["table"],
            "patch_digest": digests["table"].pop(),
        }
    )
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_path = bench_record(out_dir / "BENCH_decode.json", rows)
    report(
        "",
        f"== Live-bit decode (MULT6/S12 stride {STRIDE}, {n_live} live bits, cold) ==",
        *(f"{p:<10}: {medians[p]:.3f}s median of {ROUNDS}" for p in PATHS),
        f"tables    : {statistics.median(builds):.4f}s of the table time to build",
        f"speedup   : {medians['reference'] / medians['table']:.2f}x, patches identical",
        f"record    : {out_path}",
    )
