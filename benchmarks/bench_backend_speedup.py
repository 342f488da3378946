"""Kernel-path harness: the compiled step vs its numpy body.

Times the netlist kernel itself — a full faulty batch stepped over a
long stimulus on the exhaustive MULT4/S8 implementation — once per
kernel path: the compiled step (``reference``) and its numpy body
(``reference-numpy``, as on a host without a C compiler).  It asserts
the outputs and final node state are byte-identical and appends the
per-path timings plus the speedup to ``BENCH_backend.json``.  A
campaign-level run per path rides along for context (also
byte-checked); campaign wall clock is dominated by decode/pre-filter,
so the kernel measurement is the one to read.

Kernel paths are timed warm (one untimed step builds the caches).  The
one-time cost of compiling the native step is measured apart, as a
cold build into a scratch directory, and reported as
``compile_seconds`` rather than folded into any kernel time.

Environment knobs:

``REPRO_BENCH_DIR``
    Directory for ``BENCH_backend.json`` (default: current directory).
``REPRO_BENCH_KERNEL_BATCH``
    Machines per batch (default 1024).
``REPRO_BENCH_BACKEND_CYCLES``
    Stimulus length for the kernel timing (default 400).
"""

import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.netlist import native
from repro.netlist.simulator import BatchSimulator
from repro.seu import CampaignConfig, run_campaign

#: the compiled step, then its numpy body
KERNEL_PATHS = ("reference", "reference-numpy")


def _batch_patches(hw, B):
    """The first B campaign-style fault patches (addressable bits)."""
    patches = []
    for bit in range(hw.device.total_config_bits):
        patch = hw.decoded.patch_for_bit(bit)
        if patch is not None and not patch.is_empty():
            patches.append(patch)
        if len(patches) == B:
            break
    return patches


def _select_path(path, mp):
    """Force the numpy body for ``reference-numpy`` inside ``mp``'s scope."""
    if path == "reference-numpy":
        mp.setattr(native, "_step", None)


def _time_kernel(path, hw, patches, stim, monkeypatch, repeats=3):
    """Best-of-N wall seconds for a full batch run on one kernel path."""
    with monkeypatch.context() as mp:
        _select_path(path, mp)
        sim = BatchSimulator(hw.decoded.design, patches, companion=True)
    if path == "reference" and shutil.which("cc") is not None:
        assert sim._native is not None, "cc is on PATH but the native step did not build"
    sim.run(stim[:1])  # warm: caches build here
    best = float("inf")
    for _ in range(repeats):
        sim.reset()
        t0 = time.perf_counter()
        outputs = sim.run(stim)
        best = min(best, time.perf_counter() - t0)
    return best, outputs.copy(), sim.values.copy()


def _cold_compile_seconds() -> float | None:
    """Wall seconds of one cold build of the native step (None: no cc)."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        native._compile(cc, Path(tmp) / native._lib_name())
        return time.perf_counter() - t0


def test_backend_speedup(report, bench_record, monkeypatch):
    from repro.designs import get_design
    from repro.fpga import get_device
    from repro.place import implement

    B = int(os.environ.get("REPRO_BENCH_KERNEL_BATCH", "1024"))
    cycles = int(os.environ.get("REPRO_BENCH_BACKEND_CYCLES", "400"))

    hw = implement(get_design("MULT4"), get_device("S8"))
    patches = _batch_patches(hw, B)
    stim = hw.spec.stimulus(cycles)

    kernel_rows = []
    ref_outputs = ref_values = None
    times = {}
    for path in KERNEL_PATHS:
        seconds, outputs, values = _time_kernel(path, hw, patches, stim, monkeypatch)
        if ref_outputs is None:
            ref_outputs, ref_values = outputs, values
        else:
            assert np.array_equal(outputs, ref_outputs), path
            assert np.array_equal(values, ref_values), path
        times[path] = seconds
        kernel_rows.append(
            {
                "label": f"kernel:{path}",
                "path": path,
                "batch": len(patches),
                "cycles": cycles,
                "kernel_seconds": seconds,
                "machine_cycles_per_sec": len(patches) * cycles / seconds,
            }
        )
    compile_seconds = _cold_compile_seconds()
    native_speedup = times["reference-numpy"] / times["reference"]

    # Campaign context: end-to-end wall per path, verdicts byte-checked.
    cfg = CampaignConfig(
        detect_cycles=96, persist_cycles=64, stride=1, batch_size=B
    )
    campaign_rows = []
    ref_verdicts = None
    for path in KERNEL_PATHS:
        with monkeypatch.context() as mp:
            _select_path(path, mp)
            result = run_campaign(hw, cfg)
        if ref_verdicts is None:
            ref_verdicts = result.verdicts
        else:
            assert np.array_equal(result.verdicts, ref_verdicts), path
        row = result.telemetry.to_dict()
        row["label"] = f"campaign:{path}"
        campaign_rows.append(row)

    rows = kernel_rows + campaign_rows
    rows.append(
        {
            "label": "speedup",
            "design": hw.spec.name,
            "device": hw.device.name,
            "native_kernel_speedup": native_speedup,
            "compile_seconds": compile_seconds,
        }
    )

    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_path = bench_record(out_dir / "BENCH_backend.json", rows)

    lines = [
        "",
        f"== Kernel paths (MULT4/S8, {len(patches)} machines x {cycles} cycles) ==",
    ]
    for path in KERNEL_PATHS:
        lines.append(f"{path:<16}: {times[path]:.3f}s kernel")
    lines.append(f"reference       : {native_speedup:.2f}x vs reference-numpy")
    if compile_seconds is not None:
        lines.append(f"native compile  : {compile_seconds:.3f}s once per source version")
    lines.append("outputs, state and campaign verdicts byte-identical")
    lines.append(f"record          : {out_path}")
    report(*lines)
