"""One repetition of a sweep workload, in a fresh interpreter.

    python perfbench/rep.py --workload seu-serial --seed 0 --out rep.json \
        [--checkpoint ck.npz] [--trace-dir DIR]

Pays what a CLI user pays — imports, ``implement``, the first context
build — then runs the sweep and writes one JSON record to ``--out``:
timings, the verdict SHA-256, the engine telemetry, and (with
``--trace-dir``) the per-layer ledger.  ``run.py`` launches it with a
scrubbed environment so no cache or memo survives from a previous
repetition.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import ledger  # noqa: E402
import workloads  # noqa: E402

#: model name -> layer prefix in the ledger
LAYER_PREFIX = {"seu": "seu", "bist-coverage": "bist"}


def _setup_seu(seed: int):
    from repro.designs import get_design
    from repro.engine import prime_design_cache
    from repro.fpga import get_device
    from repro.place import implement
    from repro.seu import CampaignConfig
    from repro.seu.campaign import SEUFaultModel

    inp = workloads.seu_inputs(seed)
    hw = implement(get_design(inp.design), get_device(inp.device))
    prime_design_cache(hw)
    config = CampaignConfig(
        detect_cycles=inp.detect_cycles,
        persist_cycles=inp.persist_cycles,
        stride=inp.stride,
        batch_size=inp.batch_size,
        seed=inp.stimulus_seed,
    )
    model = SEUFaultModel(hw.spec, hw.device.name, config)
    return inp, model


def _setup_bist(seed: int):
    from repro.bist.coverage import BistCoverageModel
    from repro.bist.faults import sample_faults
    from repro.bist.patterns import clb_test_design
    from repro.engine import implemented_design

    inp = workloads.bist_inputs(seed)
    # Fault sites come from the first test configuration's fabric, as in
    # `repro bist-coverage`; both variants exercise the same resources.
    probe = implemented_design(
        clb_test_design(inp.register_pairs, register_bits=8, variant=0), inp.device
    )
    faults = sample_faults(probe.decoded, inp.n_faults, seed=inp.fault_seed)
    model = BistCoverageModel(inp.device, tuple(faults), inp.register_pairs, inp.cycles)
    return inp, model


def run(workload: str, seed: int, checkpoint: str | None, trace_dir: str | None) -> dict:
    recorder = ledger.Recorder(sink_dir=trace_dir) if trace_dir else None
    span = recorder.span if recorder else (lambda name: contextlib.nullcontext())
    if recorder is not None:
        ledger.install_place_hook(recorder)

    with span("rep.import"):
        import numpy  # noqa: F401

        from repro.engine import run_serial, run_sweep, save_sweep
        from repro.netlist.backends import resolve_backend

    setup = _setup_seu if workload == "seu-serial" else _setup_bist
    inp, model = setup(seed)
    if recorder is not None:
        model = ledger.timed_model(model, recorder, LAYER_PREFIX[model.name])
    ctx = model.build_context()
    t_setup = time.perf_counter()

    if workload == "seu-serial":
        save = functools.partial(save_sweep, path=checkpoint)
        if recorder is not None:
            save = recorder.timed(save, "engine.checkpoint")
        sweep_fn = functools.partial(
            run_serial, model, batch_size=inp.batch_size, checkpoint_save=save,
            checkpoint_every=inp.checkpoint_every, context=ctx,
        )
    else:
        sweep_fn = functools.partial(run_sweep, model, jobs=inp.jobs, batch_size=inp.batch_size)
    with span("engine.sweep"):
        t0 = time.perf_counter()
        sweep = sweep_fn()
        sweep_s = time.perf_counter() - t0
    with span("rep.verify"):
        sha = hashlib.sha256(sweep.verdicts.tobytes()).hexdigest()
    t_end = time.perf_counter()

    telem = sweep.telemetry
    out = {
        "workload": workload,
        "seed": seed,
        "sha": sha,
        "backend": resolve_backend(),
        "jobs": telem.jobs,
        "n_candidates": int(sweep.n_candidates),
        "setup_s": t_setup - T_START,
        "sweep_s": sweep_s,
        "wall_s": t_end - T_START,
        "telemetry": telem.to_dict(),
    }
    if recorder is not None:
        workers = ledger.totals([s for spans in ledger.read_sink(trace_dir).values() for s in spans])
        out.update(_ledger(recorder, workers, t_end - T_START, sweep_s, telem))
    return out


def _ledger(recorder, workers: dict, wall: float, sweep_s: float, telem) -> dict:
    """Per-layer metrics and the "where the wall went" tables.

    ``workers`` holds the :func:`ledger.totals` of spans streamed back by
    forked pool workers.
    """
    rows, remainder = ledger.ledger_table(recorder.spans, wall)
    parent = ledger.totals(recorder.spans)

    def seconds(name: str) -> float:
        return parent.get(name, {}).get("seconds", 0.0) + workers.get(name, {}).get("seconds", 0.0)

    def own(name: str) -> float:
        return parent.get(name, {}).get("self", 0.0)

    def field(name: str, key: str) -> float:
        return parent.get(name, {}).get(key, 0) + workers.get(name, {}).get(key, 0)

    driver_self = parent["engine.sweep"]["self"]
    prefilter_calls = field("seu.prefilter", "calls")
    worker_busy = telem.prefilter_seconds + telem.simulate_seconds
    layers = {
        "place.implement_s": seconds("place.implement"),
        "place.place_s": seconds("place.place"),
        "place.route_s": seconds("place.route"),
        "place.bitgen_s": seconds("place.bitgen"),
        "place.decode_s": seconds("place.decode"),
        # Self time: a context build that implements a design (the
        # second BIST variant) leaves that to place.implement_s.
        "seu.context_s": own("seu.context"),
        "seu.prefilter_s": seconds("seu.prefilter"),
        "seu.prefilter_calls": prefilter_calls,
        "seu.prefilter_settled_frac": (
            field("seu.prefilter", "n") / prefilter_calls if prefilter_calls else 0.0
        ),
        "bist.context_s": own("bist.context"),
        "bist.prefilter_s": seconds("bist.prefilter"),
        "engine.collapse_s": seconds("engine.collapse"),
        "engine.collapse_rate": telem.collapse_rate,
        "engine.checkpoint_s": seconds("engine.checkpoint"),
        "engine.checkpoints": field("engine.checkpoint", "calls"),
        "engine.driver_self_s": driver_self,
        "engine.executor_overhead_s": (
            telem.jobs * telem.wall_seconds - worker_busy if telem.jobs > 1 else 0.0
        ),
        "engine.shards": sum(telem.shard_seconds_hist),
        "engine.shard_retries": telem.shard_retries,
        "engine.shards_quarantined": telem.shards_quarantined,
        "engine.cache_hit_rate": telem.cache_hit_rate,
        "netlist.kernel_s": seconds("netlist.kernel"),
        "netlist.batches": telem.n_batches,
        # Representatives simulated: exact even when the executor runs a
        # shard twice (speculation), which the kernel spans would count.
        "netlist.machines": telem.n_simulated - telem.n_collapsed,
        "netlist.retire_rate": telem.retire_rate,
        "netlist.machine_cycles_saved": telem.machine_cycles_saved,
        "trace.sweep_coverage": 1.0 - driver_self / sweep_s if sweep_s > 0 else 0.0,
        "trace.unattributed_s": remainder,
    }
    capacity = telem.jobs * telem.wall_seconds
    worker_rows = ledger.worker_table(workers, worker_busy, capacity) if telem.jobs > 1 else []
    return {
        "layers": layers,
        "table": {"rows": rows, "remainder": remainder},
        "worker_table": {"rows": worker_rows, "capacity": capacity},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.SWEEP_WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkpoint", default=None)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    if args.workload == "seu-serial" and not args.checkpoint:
        parser.error("seu-serial needs --checkpoint")
    record = run(args.workload, args.seed, args.checkpoint, args.trace_dir)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
