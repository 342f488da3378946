"""Campaign-shrinker harness: collapse+retire vs the naive kernel.

Runs one exhaustive small-device SEU sweep on two paths — the product
path (both shrinkers on) and a naive reference model built here (not
collapsible, kernel run with ``retire=False``) — for ``ROUNDS`` rounds
that alternate which path runs first, verifies the byte-identity
contract in every round, and appends both telemetry records plus the
wall-clock speedup to ``BENCH_kernel.json``.  Wall clock on a shared
host drifts more between runs than one pair can resolve, so the speedup
is best against best: ``min(naive walls) / min(collapsed walls)``.  The
collapsed row also carries the collapse/retire rates, so a regression
that silently stops collapsing (rates drop to zero) is visible even when
the runner is too noisy for the timing floor.

Environment knobs:

``REPRO_BENCH_DIR``
    Directory for ``BENCH_kernel.json`` (default: current directory).
``REPRO_BENCH_KERNEL_DETECT`` / ``REPRO_BENCH_KERNEL_PERSIST``
    Verdict-window sizes (defaults 288/96).  Long windows are the
    shrinkers' home turf: retirement savings scale with the cycles a
    sealed machine would otherwise burn.
``REPRO_BENCH_KERNEL_BATCH``
    Simulator batch size (default 1024).  Large batches amortise the
    per-cycle Python dispatch, so the timing isolates the kernel work
    retirement actually removes.
``REPRO_BENCH_MIN_KERNEL_SPEEDUP``
    Hard floor for the collapsed-over-naive wall-clock speedup
    (default 0, i.e. report-only for noisy shared runners; an
    unloaded machine clears 2x).
"""

import os
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.engine import prime_design_cache, run_sweep
from repro.engine.cache import result_cache_scope
from repro.seu import CampaignConfig, run_campaign
from repro.seu.campaign import SEUFaultModel, simulate_batch

#: timed rounds; each runs both paths, alternating which goes first
ROUNDS = 3


class NaiveSEUModel(SEUFaultModel):
    """The SEU model without the shrinkers: every survivor is simulated
    (no collapsing) and no machine leaves its batch early."""

    collapsible: ClassVar[bool] = False

    def observe_batch(self, ctx, pending):
        _, cctx = ctx
        return simulate_batch(self.config, cctx, pending, retire=False)


def test_kernel_collapse_speedup(report, bench_record):
    from repro.designs import get_design
    from repro.fpga import get_device
    from repro.place import implement

    detect = int(os.environ.get("REPRO_BENCH_KERNEL_DETECT", "288"))
    persist = int(os.environ.get("REPRO_BENCH_KERNEL_PERSIST", "96"))
    batch = int(os.environ.get("REPRO_BENCH_KERNEL_BATCH", "1024"))
    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_KERNEL_SPEEDUP", "0"))

    hw = implement(get_design("MULT4"), get_device("S8"))
    cfg = CampaignConfig(
        detect_cycles=detect, persist_cycles=persist, stride=1, batch_size=batch
    )

    prime_design_cache(hw)
    naive_model = NaiveSEUModel(hw.spec, hw.device.name, cfg)
    naive_walls, collapsed_walls = [], []
    for i in range(ROUNDS):
        legs = ("naive", "collapsed") if i % 2 == 0 else ("collapsed", "naive")
        # A repeat served from an inherited result cache would time nothing.
        with result_cache_scope(None):
            for leg in legs:
                if leg == "naive":
                    naive = run_sweep(naive_model, batch_size=batch)
                    naive_walls.append(naive.telemetry.wall_seconds)
                else:
                    collapsed = run_campaign(hw, cfg)
                    collapsed_walls.append(collapsed.telemetry.wall_seconds)
        # The admissibility contract: shrinking must not move a verdict.
        assert np.array_equal(collapsed.verdicts, naive.verdicts), f"round {i}"
        assert collapsed.n_simulated == naive.n_simulated
        assert collapsed.telemetry.n_collapsed > 0
        assert collapsed.telemetry.machines_retired > 0

    speedup = min(naive_walls) / min(collapsed_walls)
    rows = []
    for label, result in (("naive", naive), ("collapse+retire", collapsed)):
        row = result.telemetry.to_dict()
        row.update(
            label=label,
            design=hw.spec.name,
            device=hw.device.name,
            detect_cycles=detect,
            persist_cycles=persist,
        )
        rows.append(row)
    rows.append(
        {
            "label": "speedup",
            "design": hw.spec.name,
            "device": hw.device.name,
            "kernel_speedup": speedup,
            "rounds": ROUNDS,
            "naive_walls": naive_walls,
            "collapsed_walls": collapsed_walls,
            "collapse_rate": collapsed.telemetry.collapse_rate,
            "retire_rate": collapsed.telemetry.retire_rate,
        }
    )

    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_path = bench_record(out_dir / "BENCH_kernel.json", rows)

    report(
        "",
        "== Kernel shrinkers (MULT4/S8 exhaustive, "
        f"{naive.n_candidates:,} bits, {detect}+{persist} cycles) ==",
        f"naive     : {naive.telemetry.summary()}",
        f"collapsed : {collapsed.telemetry.summary()}",
        f"speedup   : {speedup:.2f}x (best of {ROUNDS} alternating rounds); "
        "verdicts byte-identical in every round",
        f"record    : {out_path}",
    )
    assert speedup >= min_speedup
