"""Distributed fan-out scaling: loopback TCP workers vs the serial loop.

Runs the MULT6 workload serially, then over ``repro worker`` processes
on the loopback TCP transport — once undisturbed, once with a worker
SIGKILLed mid-campaign — verifies byte-identical verdicts throughout,
and appends scaling efficiency plus steal/requeue counters to
``BENCH_dist.json``.

Efficiency is ``speedup / n_workers`` (1.0 = perfect linear scaling);
loopback workers share the host's cores with the parent, so the
realistic ceiling is well below 1 and the default gate is report-only.

Environment knobs (all optional):

``REPRO_BENCH_DIR``
    Directory for ``BENCH_dist.json`` (default: current directory).
``REPRO_BENCH_STRIDE``
    Candidate-bit stride for the workload (default 8).
``REPRO_BENCH_DIST_WORKERS``
    Loopback worker count (default 3).
``REPRO_BENCH_MIN_DIST_EFFICIENCY``
    Floor for scaling efficiency (default 0, i.e. report-only —
    shared CI runners can't promise stable parallel speedups).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.engine import ExecutorPolicy, executor_policy
from repro.seu import CampaignConfig, run_campaign

REPO = Path(__file__).resolve().parents[1]


def _spawn_worker(connect: str, name: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", connect, "--name", name],
        env=env,
        cwd=str(REPO),
    )


def _run_tcp(hw, cfg, announce: str, n_workers: int, *, disturb=None):
    """One TCP campaign with fresh workers; returns (result, wall_s)."""
    workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(n_workers)]
    policy = ExecutorPolicy(
        transport="tcp",
        listen="127.0.0.1:0",
        announce=announce,
        min_workers=n_workers,
        join_timeout_s=120.0,
        max_attempts=6,
        backoff_base_s=0.01,
        backoff_cap_s=0.1,
    )
    timer = None
    if disturb is not None:
        timer = threading.Timer(disturb, workers[0].send_signal, (signal.SIGKILL,))
        timer.start()
    t0 = time.perf_counter()
    try:
        with executor_policy(policy):
            result = run_campaign(hw, cfg, jobs=max(2, n_workers))
    finally:
        if timer is not None:
            timer.cancel()
        for proc in workers:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5)
    return result, time.perf_counter() - t0


def test_dist_fanout(bench_device, report, tmp_path, bench_record):
    from repro.designs import get_design
    from repro.place import implement

    stride = int(os.environ.get("REPRO_BENCH_STRIDE", "8"))
    n_workers = int(os.environ.get("REPRO_BENCH_DIST_WORKERS", "3"))
    min_eff = float(os.environ.get("REPRO_BENCH_MIN_DIST_EFFICIENCY", "0"))

    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    hw = implement(get_design("MULT6"), bench_device)
    cfg = CampaignConfig(detect_cycles=96, persist_cycles=64, stride=stride)

    t0 = time.perf_counter()
    serial = run_campaign(hw, cfg, jobs=1)
    serial_wall = time.perf_counter() - t0

    dist, dist_wall = _run_tcp(hw, cfg, str(tmp_path / "addr1"), n_workers)
    assert np.array_equal(serial.verdicts, dist.verdicts)
    dt = dist.telemetry
    assert dt.shards_quarantined == 0
    assert dt.workers_joined >= n_workers

    # Recovery leg: SIGKILL one worker ~30% into the undisturbed wall
    # time; the survivors absorb the requeued shard and the verdict
    # bytes must not move.
    chaos, chaos_wall = _run_tcp(
        hw, cfg, str(tmp_path / "addr2"), n_workers, disturb=max(0.5, dist_wall * 0.3)
    )
    assert np.array_equal(serial.verdicts, chaos.verdicts)
    ct = chaos.telemetry
    assert ct.shards_quarantined == 0

    speedup = serial_wall / dist_wall if dist_wall > 0 else 0.0
    efficiency = speedup / n_workers
    rows = [
        {
            "label": "serial",
            "design": hw.spec.name,
            "device": hw.device.name,
            "wall_seconds": serial_wall,
        },
        {
            "label": "tcp",
            "n_workers": n_workers,
            "wall_seconds": dist_wall,
            "speedup": speedup,
            "efficiency": efficiency,
            "dist_steals": dt.dist_steals,
            "dist_requeues": dt.dist_requeues,
            "workers_joined": dt.workers_joined,
            "worker_tasks": dt.worker_tasks,
        },
        {
            "label": "tcp_kill_recovery",
            "n_workers": n_workers,
            "wall_seconds": chaos_wall,
            "dist_steals": ct.dist_steals,
            "dist_requeues": ct.dist_requeues,
            "workers_left": ct.workers_left,
            "worker_tasks": ct.worker_tasks,
        },
    ]
    out_path = bench_record(out_dir / "BENCH_dist.json", rows)

    report(
        "",
        f"== Distributed fan-out (MULT6, stride {stride}, "
        f"{n_workers} loopback workers) ==",
        f"serial  : {serial_wall:.2f}s",
        f"tcp     : {dist_wall:.2f}s  speedup {speedup:.2f}x  "
        f"efficiency {efficiency:.2f}  steals {dt.dist_steals}",
        f"recovery: {chaos_wall:.2f}s with a SIGKILLed worker — "
        f"{ct.dist_requeues} requeue(s), {ct.workers_left} leave(s); "
        f"verdicts byte-identical",
        f"record  : {out_path}",
    )
    if min_eff > 0:
        assert efficiency >= min_eff, (
            f"distributed efficiency {efficiency:.2f} below the "
            f"{min_eff:.2f} floor (REPRO_BENCH_MIN_DIST_EFFICIENCY)"
        )
