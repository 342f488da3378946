"""Chaos recovery harness: disturbed vs undisturbed sweep, machine-readable.

Runs the MULT6 workload once undisturbed and once under a seeded chaos
schedule (worker crashes, hangs, delays), verifies the recovery
contract — identical verdict bytes, nothing quarantined — and appends
both telemetry records plus the recovery counters to
``BENCH_chaos.json`` so the cost of fault tolerance (pool rebuilds,
retries, speculative launches, wall-clock ratio) is tracked across
revisions.

Environment knobs (all optional):

``REPRO_BENCH_DIR``
    Directory for ``BENCH_chaos.json`` (default: current directory).
``REPRO_BENCH_STRIDE``
    Candidate-bit stride for the workload (default 8).
``REPRO_BENCH_JOBS``
    Worker count (default: all CPUs, floored at 2 — jobs=1 delegates
    to the serial loop, which the chaos harness cannot disturb).
``REPRO_BENCH_MAX_CHAOS_OVERHEAD``
    Ceiling for chaos-on/chaos-off wall-clock ratio (default 0, i.e.
    report-only: the ratio depends on core count and scheduler noise,
    so only dedicated runners should enforce it).
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.engine import ChaosPolicy, ExecutorPolicy, default_jobs, executor_policy
from repro.seu import CampaignConfig, run_campaign

# Mild but complete schedule: at least one crash, hang and delay land
# within the first few task keys of each phase, and every fault is
# transient (launches=1), so recovery must succeed without quarantine.
CHAOS = ChaosPolicy(seed=3, crash=0.15, hang=0.05, hang_s=5.0, delay=0.3, delay_s=0.02)
POLICY = ExecutorPolicy(
    max_attempts=6,
    backoff_base_s=0.01,
    backoff_cap_s=0.1,
    speculate_after_s=0.5,
    heartbeat_interval_s=0.1,
    chaos=CHAOS,
)


def test_chaos_recovery(bench_device, report, bench_record):
    from repro.designs import get_design
    from repro.place import implement

    stride = int(os.environ.get("REPRO_BENCH_STRIDE", "8"))
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or max(2, default_jobs())
    max_overhead = float(os.environ.get("REPRO_BENCH_MAX_CHAOS_OVERHEAD", "0"))

    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    hw = implement(get_design("MULT6"), bench_device)
    cfg = CampaignConfig(detect_cycles=96, persist_cycles=64, stride=stride)

    clean = run_campaign(hw, cfg, jobs=jobs)
    with executor_policy(POLICY):
        disturbed = run_campaign(hw, cfg, jobs=jobs)

    # The recovery contract: chaos decides whether workers answer,
    # never what they answer — and this schedule is fully survivable.
    assert np.array_equal(clean.verdicts, disturbed.verdicts)
    assert disturbed.telemetry.shards_quarantined == 0
    assert disturbed.telemetry.candidates_quarantined == 0

    ct, dt = clean.telemetry, disturbed.telemetry
    overhead = dt.wall_seconds / ct.wall_seconds
    rows = []
    for label, telem in (("clean", ct), ("chaos", dt)):
        row = telem.to_dict()
        row.update(label=label, design=hw.spec.name, device=hw.device.name)
        rows.append(row)
    rows.append(
        {
            "label": "recovery",
            "design": hw.spec.name,
            "device": hw.device.name,
            "jobs": jobs,
            "chaos_overhead": overhead,
            "shard_retries": dt.shard_retries,
            "pool_rebuilds": dt.pool_rebuilds,
            "speculative_launches": dt.speculative_launches,
            "speculative_wins": dt.speculative_wins,
        }
    )
    out_path = bench_record(out_dir / "BENCH_chaos.json", rows)

    report(
        "",
        "== Chaos recovery (MULT6, stride "
        f"{stride}, jobs={jobs}, {clean.n_candidates:,} candidate bits) ==",
        f"clean   : {ct.summary()}",
        f"chaos   : {dt.summary()}",
        f"recovery: {dt.shard_retries} retries, {dt.pool_rebuilds} pool rebuild(s), "
        f"{dt.speculative_launches} speculative launch(es) "
        f"({dt.speculative_wins} won); verdicts byte-identical",
        f"overhead: {overhead:.2f}x undisturbed wall clock",
        f"record  : {out_path}",
    )
    if max_overhead > 0:
        assert overhead <= max_overhead, (
            f"chaos recovery overhead {overhead:.2f}x exceeds the "
            f"{max_overhead:.2f}x ceiling (REPRO_BENCH_MAX_CHAOS_OVERHEAD)"
        )
