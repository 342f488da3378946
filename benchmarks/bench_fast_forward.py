"""Temporal fast-forward and result-cache harness.

Measures the two levers this engine uses to avoid re-simulating work it
has already done, on a *late-injection* campaign (a long fault-free
warmup prefix before the upset window — the regime the paper's
radiation campaigns live in, where most of every trial is golden):

* **Golden-prefix fast-forward**: a cold context build simulates the
  golden run end to end and then replays the warmup prefix again for
  the pre-injection snapshot.  With fast-forward, the golden run is
  served from the content-addressed pack store and every batch starts
  from the stride-aligned snapshot nearest the injection cycle — the
  warmup prefix is never simulated again.  The timed "ff" run is a
  *primed* run (pack already stored), which is exactly the steady state
  of a sweep campaign: one golden simulation, thousands of starts.
* **Result cache**: the same sweep repeated against one cache directory
  is served from the whole-sweep verdict entry without building a
  context at all.

Verdict bytes are asserted identical across all three modes *before*
any floor is checked, and both floors default to 0 (report-only).

Environment knobs:

``REPRO_BENCH_DIR``
    Directory for ``BENCH_ff.json`` (default: current directory).
``REPRO_BENCH_FF_WARMUP``
    Fault-free warmup cycles before injection (default 3072; a
    multiple of the 64-cycle snapshot stride, so the restore is exact).
``REPRO_BENCH_FF_CANDIDATE_STRIDE``
    Candidate-bit subsampling for the sweep (default 16).
``REPRO_BENCH_MIN_FF_SPEEDUP``
    Hard floor for cold vs fast-forward wall clock (default 0 =
    report-only; the acceptance floor is 3, which an unloaded machine
    clears comfortably at the default warmup).
``REPRO_BENCH_MIN_CACHE_SPEEDUP``
    Hard floor for cold vs warm-cache wall clock (default 0; the
    acceptance floor is 10).
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.engine import prime_design_cache, run_sweep
from repro.engine.cache import result_cache_scope
from repro.seu import CampaignConfig, run_campaign
from repro.seu.campaign import SEUFaultModel, build_context


def _cold_campaign(hw, cfg):
    """The sweep over the cold context: golden run and warmup replay
    from cycle 0, no golden-pack store."""
    model = SEUFaultModel(hw.spec, hw.device.name, cfg)
    context = (hw, build_context(hw, cfg, fast_forward=False))
    return run_sweep(model, batch_size=cfg.batch_size, context=context)


def _time_campaign(run, hw, cfg, repeats=2):
    """Best-of-N wall seconds plus the (byte-checked) last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run(hw, cfg)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_fast_forward_speedup(report, bench_record, tmp_path):
    from repro.designs import get_design
    from repro.fpga import get_device
    from repro.place import implement

    warmup = int(os.environ.get("REPRO_BENCH_FF_WARMUP", "3072"))
    cand_stride = int(os.environ.get("REPRO_BENCH_FF_CANDIDATE_STRIDE", "16"))
    min_ff = float(os.environ.get("REPRO_BENCH_MIN_FF_SPEEDUP", "0"))
    min_cache = float(os.environ.get("REPRO_BENCH_MIN_CACHE_SPEEDUP", "0"))

    hw = implement(get_design("MULT4"), get_device("S8"))
    prime_design_cache(hw)
    cfg = CampaignConfig(
        warmup_cycles=warmup,
        detect_cycles=24,
        persist_cycles=0,
        classify_persistence=False,
        stride=cand_stride,
        batch_size=64,
    )

    # Cold: the cold context, no result cache — golden run plus a full
    # warmup replay on every campaign (context build timed with it).
    with result_cache_scope(None):
        cold_s, cold = _time_campaign(_cold_campaign, hw, cfg)

    # Fast-forward, primed: one untimed run stores the golden pack (the
    # sweep steady state), then the timed runs skip the whole golden
    # prefix via pack hit + snapshot restore.
    with result_cache_scope(None):
        run_campaign(hw, cfg)  # prime the pack store
        ff_s, ff = _time_campaign(run_campaign, hw, cfg)

    # Result cache: cold run populates the store, warm repeat is served
    # from the whole-sweep verdict entry.
    cache_dir = tmp_path / "result-cache"
    with result_cache_scope(str(cache_dir)):
        t0 = time.perf_counter()
        cache_cold = run_campaign(hw, cfg)
        cache_cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_campaign(hw, cfg)
        warm_s = time.perf_counter() - t0

    # Bytes first, speed second.
    assert np.array_equal(ff.verdicts, cold.verdicts)
    assert np.array_equal(cache_cold.verdicts, cold.verdicts)
    assert np.array_equal(warm.verdicts, cold.verdicts)
    assert warm.telemetry.cache_hits > 0

    ff_speedup = cold_s / ff_s
    cache_speedup = cold_s / warm_s

    rows = []
    for label, seconds, result in (
        ("cold", cold_s, cold),
        ("fast-forward", ff_s, ff),
        ("cache-cold", cache_cold_s, cache_cold),
        ("cache-warm", warm_s, warm),
    ):
        row = result.telemetry.to_dict()
        row["label"] = label
        row["best_seconds"] = seconds
        rows.append(row)
    rows.append(
        {
            "label": "speedup",
            "design": hw.spec.name,
            "device": hw.device.name,
            "warmup_cycles": warmup,
            "candidate_stride": cand_stride,
            "ff_speedup": ff_speedup,
            "cache_speedup": cache_speedup,
            "ff_cycles_skipped": ff.telemetry.ff_cycles_skipped,
        }
    )
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    out_path = bench_record(out_dir / "BENCH_ff.json", rows)

    report(
        "",
        f"== Temporal fast-forward (MULT4/S8, warmup {warmup} cycles, "
        f"candidate stride {cand_stride}) ==",
        f"cold         : {cold_s:.3f}s (golden + warmup replay every run)",
        f"fast-forward : {ff_s:.3f}s ({ff_speedup:.1f}x; "
        f"{ff.telemetry.ff_cycles_skipped} cycles skipped)",
        f"warm cache   : {warm_s:.4f}s ({cache_speedup:.1f}x; "
        f"{warm.telemetry.cache_hits} hit(s), "
        f"{warm.telemetry.cache_bytes} bytes)",
        "verdict bytes identical across all modes",
        f"record       : {out_path}",
    )

    assert ff_speedup >= min_ff
    assert cache_speedup >= min_cache
