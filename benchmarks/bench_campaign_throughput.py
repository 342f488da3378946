"""Campaign throughput harness: serial vs sharded sweep, machine-readable.

Runs the Table-I MULT6/S12 workload once serially and once with the
multi-process engine, verifies the byte-identity contract on the side,
and appends both telemetry records to ``BENCH_campaign.json`` so the
throughput trajectory (bits/sec, µs/bit, skip rates, per-phase timings)
is tracked across revisions.

Environment knobs (all optional — defaults suit a laptop *and* a loaded
CI runner):

``REPRO_BENCH_DIR``
    Directory for ``BENCH_campaign.json`` (default: current directory).
``REPRO_BENCH_STRIDE``
    Candidate-bit stride for the workload (default 8; 1 = exhaustive).
``REPRO_BENCH_JOBS``
    Worker count for the parallel row (default: all CPUs).
``REPRO_BENCH_MIN_PARALLEL_SPEEDUP``
    Hard floor for wall-clock speedup of jobs=N over jobs=1 (default 0,
    i.e. report-only: single-core runners and noisy CI cannot
    demonstrate a parallel win, but they can still verify identity).
``REPRO_BENCH_MAX_TRACE_OVERHEAD``
    Ceiling for traced/untraced serial wall-clock ratio (default 1.05:
    the obs layer promises <=5% overhead; set 0 to disable on very
    noisy machines).
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.obs import observe
from repro.engine import default_jobs
from repro.seu import CampaignConfig, run_campaign


def _bench_rows(hw, results) -> list[dict]:
    rows = []
    for label, result in results:
        row = result.telemetry.to_dict()
        row.update(
            label=label,
            design=hw.spec.name,
            device=hw.device.name,
            host_seconds=result.host_seconds,
            sensitivity=result.sensitivity,
        )
        rows.append(row)
    return rows


def test_campaign_throughput(bench_device, report, bench_record):
    from repro.designs import get_design
    from repro.place import implement

    stride = int(os.environ.get("REPRO_BENCH_STRIDE", "8"))
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or default_jobs()
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "0"))
    max_trace_overhead = float(os.environ.get("REPRO_BENCH_MAX_TRACE_OVERHEAD", "1.05"))

    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    hw = implement(get_design("MULT6"), bench_device)
    cfg = CampaignConfig(detect_cycles=96, persist_cycles=64, stride=stride)

    serial = run_campaign(hw, cfg)
    parallel = run_campaign(hw, cfg, jobs=jobs)

    # Traced serial reruns: pin the <=5% overhead promise of repro.obs
    # and leave a real trace behind (CI uploads it as an artifact).
    # Wall-clock on a shared host drifts more per run than the overhead
    # being measured, so interleave three untraced/traced pairs and
    # compare min against min — the standard noise-robust estimator.
    trace_path = out_dir / "BENCH_campaign_trace.jsonl"
    untraced_walls, traced_walls = [], []
    traced = serial
    for _ in range(3):
        untraced_walls.append(run_campaign(hw, cfg).telemetry.wall_seconds)
        trace_path.unlink(missing_ok=True)
        with observe(str(trace_path), label="bench"):
            traced = run_campaign(hw, cfg)
        traced_walls.append(traced.telemetry.wall_seconds)

    # The determinism contract, checked on the benchmark workload too.
    assert np.array_equal(serial.verdicts, parallel.verdicts)
    assert np.array_equal(serial.verdicts, traced.verdicts)
    assert serial.n_simulated == parallel.n_simulated == traced.n_simulated

    trace_overhead = min(traced_walls) / min(untraced_walls)
    rows = _bench_rows(
        hw, [("serial", serial), (f"jobs={jobs}", parallel), ("traced", traced)]
    )
    speedup = serial.telemetry.wall_seconds / parallel.telemetry.wall_seconds
    rows.append(
        {
            "label": "speedup",
            "design": hw.spec.name,
            "device": hw.device.name,
            "jobs": jobs,
            "parallel_speedup": speedup,
            "trace_overhead": trace_overhead,
        }
    )

    out_path = bench_record(out_dir / "BENCH_campaign.json", rows)

    report(
        "",
        "== Campaign throughput (MULT6/S12, stride "
        f"{stride}, {serial.n_candidates:,} candidate bits) ==",
        f"serial  : {serial.telemetry.summary()}",
        f"sharded : {parallel.telemetry.summary()}",
        f"speedup : {speedup:.2f}x (jobs={jobs}); verdicts byte-identical",
        f"tracing : {trace_overhead:.3f}x serial wall clock, trace at {trace_path}",
        f"record  : {out_path}",
    )
    assert speedup >= min_speedup
    if max_trace_overhead > 0:
        assert trace_overhead <= max_trace_overhead, (
            f"tracing overhead {trace_overhead:.3f}x exceeds the "
            f"{max_trace_overhead:.2f}x ceiling (REPRO_BENCH_MAX_TRACE_OVERHEAD)"
        )
