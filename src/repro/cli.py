"""Command-line interface: the experiments as shell one-liners.

Installed as the ``repro`` console script::

    repro devices                        # list the device catalog
    repro implement MULT6 --device S12   # place/route/bitgen summary
    repro campaign MULT6 --device S12    # exhaustive SEU sweep
    repro multibit MULT6 --k 2           # k-bit simultaneous-upset trials
    repro bist-coverage --faults 200     # CLB BIST hard-fault coverage
    repro table1                         # scaled Table I reproduction
    repro table2                         # scaled Table II reproduction
    repro orbit --hours 2                # mission rehearsal
    repro report trace.jsonl             # render a --trace file
    repro worker --connect HOST:PORT     # join a distributed campaign
    repro serve --listen HOST:PORT       # HTTP job service over the engine

Long-running commands (campaign, multibit, bist-coverage,
scrub-stress) accept ``--trace PATH`` (append-only JSONL span trace,
see :mod:`repro.obs`) and ``--progress`` (live stderr progress line);
both are verdict-invariant.

The sweep commands (campaign, multibit, bist-coverage) also accept
``--executor tcp --listen HOST:PORT`` to fan shards out to ``repro
worker`` processes over sockets instead of a local process pool —
verdicts stay byte-identical to a serial run.  Fault collapsing,
machine retirement and golden-prefix fast-forward are not options:
they cannot change a verdict, so every sweep runs them.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic reconfiguration for radiation-fault management "
        "in FPGAs (paper reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", metavar="PATH", default=None,
            help="append a JSONL span trace to PATH (render with `repro "
            "report PATH`; verdicts are identical with or without)",
        )
        p.add_argument(
            "--progress", action="store_true",
            help="live progress line on stderr (verdict-invariant)",
        )

    def add_resilience_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--shard-attempts", type=int, default=None, metavar="N",
            help="worker attempts per shard before it is quarantined "
            "(default 3; sharded runs only)",
        )
        p.add_argument(
            "--allow-partial", action="store_true",
            help="exit 0 even when shards were quarantined (the result then "
            "excludes their candidates; default: nonzero exit)",
        )
        p.add_argument(
            "--chaos", metavar="SPEC", default=None,
            help="inject deterministic worker faults, e.g. "
            "'seed=3,crash=0.2,hang=0.1,hang-s=5,drop=0.1,partition=0.05' — "
            "a recovery test knob; verdicts are identical to an undisturbed "
            "run whenever the executor recovers",
        )
        p.add_argument(
            "--result-cache", metavar="DIR|off", default=None,
            help="content-addressed result store: a warm repeat of the same "
            "sweep is served from DIR without simulating, byte-identically; "
            "'off' disables an inherited REPRO_RESULT_CACHE",
        )

    def add_transport_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--executor", choices=("local", "tcp"), default=None, dest="transport",
            help="shard transport: 'local' process pool (default) or 'tcp' "
            "distributed workers started with `repro worker --connect` "
            "(verdicts are byte-identical either way)",
        )
        p.add_argument(
            "--workers", type=int, default=None, metavar="N",
            help="with --executor tcp: wait for N connected workers before "
            "dispatching (default 1; late joiners still steal work)",
        )
        p.add_argument(
            "--listen", metavar="HOST:PORT", default=None,
            help="with --executor tcp: bind address for the coordinator "
            "(default 127.0.0.1:0 — an ephemeral port; see --announce)",
        )
        p.add_argument(
            "--announce", metavar="PATH", default=None,
            help="with --executor tcp: write the bound host:port to PATH so "
            "workers can `--connect @PATH` without knowing the port",
        )

    def add_sweep_flags(p: argparse.ArgumentParser, jobs_default: int | None) -> None:
        p.add_argument(
            "--jobs", type=int, default=jobs_default, metavar="N",
            help=f"worker processes for the sharded sweep (default: "
            f"{jobs_default or 'all CPUs'}; 1 = serial; verdicts are "
            "byte-identical for any N)",
        )
        p.add_argument(
            "--checkpoint", metavar="PATH",
            help="snapshot partial verdicts to PATH (.npz) so a killed sweep "
            "can resume",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="resume from --checkpoint instead of starting over",
        )
        p.add_argument(
            "--batch-size", type=int, default=None, metavar="N",
            help="survivors simulated per batch (default 128; a pure "
            "performance setting — verdicts never depend on it)",
        )
        add_obs_flags(p)
        add_resilience_flags(p)
        add_transport_flags(p)

    sub.add_parser("devices", help="list the device catalog")

    p = sub.add_parser("implement", help="place/route/bitgen one design")
    p.add_argument("design", help="catalog name, e.g. MULT6 or LFSR2")
    p.add_argument("--device", default="S12")

    p = sub.add_parser("campaign", help="exhaustive SEU campaign on one design")
    p.add_argument("design")
    p.add_argument("--device", default="S12")
    p.add_argument("--detect-cycles", type=int, default=96)
    p.add_argument("--persist-cycles", type=int, default=64)
    p.add_argument("--stride", type=int, default=1, help="test every k-th bit")
    p.add_argument("--save-map", metavar="PATH", help="save the sensitivity map (.npz)")
    p.add_argument(
        "--checkpoint-every", type=int, default=50_000,
        help="simulated survivors between snapshots (at least one per shard)",
    )
    add_sweep_flags(p, jobs_default=None)

    p = sub.add_parser(
        "multibit", help="k-bit simultaneous-upset (MBU) campaign on one design"
    )
    p.add_argument("design")
    p.add_argument("--device", default="S12")
    p.add_argument("--k", type=int, default=2, help="upsets per trial")
    p.add_argument("--trials", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detect-cycles", type=int, default=96)
    p.add_argument(
        "--single-sensitivity", type=float, default=None,
        help="single-bit sensitivity for the independence prediction "
        "(default: measure it with a strided campaign)",
    )
    p.add_argument(
        "--stride", type=int, default=13,
        help="stride of the sensitivity-measuring campaign",
    )
    add_sweep_flags(p, jobs_default=1)

    p = sub.add_parser(
        "bist-coverage", help="hard-fault coverage of the CLB BIST configurations"
    )
    p.add_argument("--device", default="S12")
    p.add_argument("--faults", type=int, default=200, dest="n_faults",
                   help="random hard faults to inject")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycles", type=int, default=128)
    p.add_argument("--register-pairs", type=int, default=4)
    add_sweep_flags(p, jobs_default=1)

    p = sub.add_parser("table1", help="reproduce Table I on scaled designs")
    p.add_argument("--device", default="S12")

    p = sub.add_parser("table2", help="reproduce Table II on scaled designs")
    p.add_argument("--device", default="S12")

    p = sub.add_parser("orbit", help="fly a scrubbed board through LEO")
    p.add_argument("--device", default="S12")
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--devices", type=int, default=3, dest="n_devices")
    p.add_argument("--flare", action="store_true", help="solar-flare flux")
    p.add_argument(
        "--flux-scale", type=float, default=2000.0,
        help="area-compensation factor for scaled devices",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "scrub-stress",
        help="fly a board with a faulty scrub channel (noise, SEFIs, escalation)",
    )
    p.add_argument("--device", default="S12")
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--devices", type=int, default=9, dest="n_devices")
    p.add_argument("--ber", type=float, default=1e-7, help="readback bit-error rate")
    p.add_argument(
        "--transient-rate", type=float, default=1e-3,
        help="probability a port operation fails transiently",
    )
    p.add_argument(
        "--sefi-rate", type=float, default=1e-5,
        help="probability a port operation hangs the port (SEFI)",
    )
    p.add_argument("--flare", action="store_true", help="solar-flare flux")
    p.add_argument(
        "--flux-scale", type=float, default=2000.0,
        help="area-compensation factor for scaled devices",
    )
    p.add_argument("--seed", type=int, default=0)
    add_obs_flags(p)

    p = sub.add_parser(
        "report", help="render a --trace JSONL file (span tree, critical path)"
    )
    p.add_argument(
        "trace_file", metavar="TRACE", help="trace file written by --trace PATH"
    )
    p.add_argument(
        "--json", action="store_true", dest="report_json",
        help="emit the report as machine-readable JSON instead of text",
    )

    p = sub.add_parser(
        "worker",
        help="serve shards for a distributed campaign (`--executor tcp`)",
    )
    p.add_argument(
        "--connect", required=True, metavar="HOST:PORT|@PATH",
        help="coordinator address, or @PATH to read it from an --announce file",
    )
    p.add_argument(
        "--persist", action="store_true",
        help="rejoin after the coordinator says goodbye (serve campaign after "
        "campaign until killed; default: exit after one campaign)",
    )
    p.add_argument(
        "--name", default=None,
        help="worker name in telemetry and traces (default: host-pid)",
    )
    p.add_argument(
        "--hb-interval", type=float, default=1.0, metavar="SECONDS",
        help="heartbeat period before the coordinator's welcome overrides it",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=60.0, metavar="SECONDS",
        help="give up when no coordinator accepts within this window",
    )
    p.add_argument(
        "--join-timeout", type=float, default=None, metavar="SECONDS",
        help="with --connect @PATH: fail with a clear error when the "
        "announce file has not named a coordinator within this window "
        "(default: keep polling until --connect-timeout expires)",
    )

    p = sub.add_parser(
        "serve",
        help="run the campaign job service (HTTP API over the engine)",
    )
    p.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:8321",
        help="bind address (port 0 picks an ephemeral port; see --announce)",
    )
    p.add_argument(
        "--state", metavar="DIR", default=".repro-service",
        help="state directory for job records, results, traces and "
        "checkpoints; restarting over the same DIR resumes interrupted jobs",
    )
    p.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="concurrent engine jobs (each job may itself use --jobs N)",
    )
    p.add_argument(
        "--result-cache", metavar="DIR|off", default=None,
        help="content-addressed result store consulted before running any "
        "job (default: the REPRO_RESULT_CACHE env var; 'off' disables)",
    )
    p.add_argument(
        "--max-running", type=int, default=4, metavar="N",
        help="per-tenant cap on concurrently running jobs",
    )
    p.add_argument(
        "--max-queued", type=int, default=None, metavar="N",
        help="per-tenant cap on queued backlog (submit returns 429 beyond "
        "it; default: unbounded)",
    )
    p.add_argument(
        "--announce", metavar="PATH", default=None,
        help="write the bound host:port to PATH once listening",
    )
    add_obs_flags(p)
    return parser


def _warn_quarantine(telemetry) -> None:
    """Surface quarantined work in a partial result (``--allow-partial``)."""
    if telemetry is not None and telemetry.shards_quarantined:
        late = ""
        if getattr(telemetry, "late_results", 0):
            late = (
                f"; {telemetry.late_results} of them completed during "
                f"teardown (logged in the trace, not merged)"
            )
        print(
            f"warning: {telemetry.shards_quarantined} shard(s) quarantined; "
            f"{telemetry.candidates_quarantined} candidate(s) excluded from "
            f"this result (re-run to retry them){late}",
            file=sys.stderr,
        )


def _cmd_devices() -> int:
    from repro.fpga import DEVICE_CATALOG, get_device

    for name in DEVICE_CATALOG:
        dev = get_device(name)
        print(
            f"{name:<9} {dev.rows:>3}x{dev.cols:<3} CLBs  "
            f"{dev.n_slices:>6} slices  "
            f"{dev.total_config_bits:>9,} config bits"
        )
    return 0


def _cmd_implement(args: argparse.Namespace) -> int:
    from repro import get_design, get_device, implement

    hw = implement(get_design(args.design), get_device(args.device))
    print(hw.summary())
    print(
        f"routing: {hw.routed.n_pips_on} PIPs, {hw.routed.n_escapes} long-line "
        f"escapes, {hw.routed.n_route_throughs} route-throughs"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro import CampaignConfig, get_design, run_campaign
    from repro.engine import implemented_design
    from repro.seu import SensitivityMap, format_table1, resume_campaign, table1_row

    run_opts = dict(jobs=args.jobs, checkpoint_every=args.checkpoint_every)
    batch = {} if args.batch_size is None else {"batch_size": args.batch_size}
    # Through the engine's design cache, so the sweep's context build
    # reuses this implementation instead of redoing it.
    hw = implemented_design(get_design(args.design), args.device)
    if args.resume:
        result = resume_campaign(hw, args.checkpoint, **batch, **run_opts)
    else:
        config = CampaignConfig(
            detect_cycles=args.detect_cycles,
            persist_cycles=args.persist_cycles,
            stride=args.stride,
            **batch,
        )
        result = run_campaign(hw, config, checkpoint_path=args.checkpoint, **run_opts)
    print(result.summary())
    if result.telemetry is not None:
        print(f"throughput: {result.telemetry.summary()}")
    _warn_quarantine(result.telemetry)
    print(format_table1([table1_row(hw, result)]))
    print(f"persistence ratio: {100 * result.persistence_ratio:.1f}%")
    if args.save_map:
        SensitivityMap.from_campaign(hw.device, result).save(args.save_map)
        print(f"sensitivity map saved to {args.save_map}")
    return 0


def _cmd_multibit(args: argparse.Namespace) -> int:
    from repro import CampaignConfig, get_design, run_campaign
    from repro.engine import implemented_design
    from repro.engine.sweep import _resume_path
    from repro.seu import run_multibit_campaign

    if args.resume:
        _resume_path(args.checkpoint)  # fail before the probe campaign
    hw = implemented_design(get_design(args.design), args.device)
    cfg_extra = {} if args.batch_size is None else {"batch_size": args.batch_size}
    config = CampaignConfig(detect_cycles=args.detect_cycles, persist_cycles=0,
                            classify_persistence=False, **cfg_extra)
    sensitivity = args.single_sensitivity
    if sensitivity is None:
        probe = CampaignConfig(
            detect_cycles=args.detect_cycles, persist_cycles=0,
            classify_persistence=False, stride=args.stride, **cfg_extra,
        )
        probe_result = run_campaign(hw, probe)
        sensitivity = probe_result.sensitivity
        print(
            f"single-bit sensitivity (stride {args.stride}): "
            f"{100 * sensitivity:.2f}%",
            file=sys.stderr,
        )
    result = run_multibit_campaign(
        hw,
        sensitivity,
        k=args.k,
        n_trials=args.trials,
        config=config,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    print(result.summary())
    if result.telemetry is not None:
        print(f"throughput: {result.telemetry.summary()}")
    _warn_quarantine(result.telemetry)
    return 0


def _cmd_bist_coverage(args: argparse.Namespace) -> int:
    from repro.bist.coverage import run_coverage
    from repro.bist.faults import sample_faults
    from repro.bist.patterns import clb_test_design
    from repro.engine import implemented_design
    from repro.fpga import get_device

    device = get_device(args.device)
    # Sample fault sites from the fabric of the first test configuration;
    # both variants exercise the same CLB/wire resources.  The coverage
    # sweep's context build finds this implementation in the cache.
    probe = implemented_design(
        clb_test_design(args.register_pairs, register_bits=8, variant=0), device.name
    )
    faults = sample_faults(probe.decoded, args.n_faults, seed=args.seed)
    report = run_coverage(
        device,
        faults,
        n_register_pairs=args.register_pairs,
        cycles=args.cycles,
        jobs=args.jobs,
        batch_size=128 if args.batch_size is None else args.batch_size,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    print(report.summary())
    for config_name, caught in report.detected_by.items():
        print(f"  {config_name}: {len(caught)} detected")
    if report.telemetry is not None:
        print(f"throughput: {report.telemetry.summary()}")
    _warn_quarantine(report.telemetry)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro import CampaignConfig, get_device, implement, run_campaign
    from repro.designs import scaled_suite_table1
    from repro.seu import format_table1, table1_row

    device = get_device(args.device)
    config = CampaignConfig(detect_cycles=96, persist_cycles=0, classify_persistence=False)
    rows = []
    for spec in scaled_suite_table1():
        hw = implement(spec, device)
        rows.append(table1_row(hw, run_campaign(hw, config)))
        print(f"  done: {rows[-1].design}", file=sys.stderr)
    print(format_table1(rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro import CampaignConfig, get_device, implement, run_campaign
    from repro.designs import scaled_suite_table2
    from repro.seu import format_table2

    device = get_device(args.device)
    config = CampaignConfig(detect_cycles=96, persist_cycles=64)
    rows = []
    for spec in scaled_suite_table2():
        hw = implement(spec, device)
        res = run_campaign(hw, config)
        rows.append(
            (spec.name, hw.used_slices, hw.utilization, res.sensitivity, res.persistence_ratio)
        )
        print(f"  done: {spec.name}", file=sys.stderr)
    print(format_table2(rows))
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    from repro.bitstream import ConfigBitstream
    from repro.fpga import get_device
    from repro.radiation import LEO_FLARE, LEO_QUIET, OrbitEnvironment
    from repro.scrub import OnOrbitSystem

    device = get_device(args.device)
    rng = np.random.default_rng(args.seed)
    golden = ConfigBitstream(
        device.geometry,
        rng.integers(0, 2, device.geometry.total_bits).astype(np.uint8),
    )
    base = LEO_FLARE if args.flare else LEO_QUIET
    env = OrbitEnvironment(
        f"{base.name} (x{args.flux_scale:g})",
        base.effective_flux_cm2_s * args.flux_scale,
    )
    system = OnOrbitSystem(
        device, golden, n_devices=args.n_devices, environment=env, seed=args.seed
    )
    report = system.fly(args.hours * 3600.0)
    print(report.summary())
    print(f"state of health: {report.soh.summary()}")
    return 0


def _cmd_scrub_stress(args: argparse.Namespace) -> int:
    from repro.bitstream import ConfigBitstream
    from repro.fpga import get_device
    from repro.radiation import LEO_FLARE, LEO_QUIET, OrbitEnvironment
    from repro.scrub import NoiseConfig, OnOrbitSystem, ScrubEventKind

    device = get_device(args.device)
    rng = np.random.default_rng(args.seed)
    golden = ConfigBitstream(
        device.geometry,
        rng.integers(0, 2, device.geometry.total_bits).astype(np.uint8),
    )
    base = LEO_FLARE if args.flare else LEO_QUIET
    env = OrbitEnvironment(
        f"{base.name} (x{args.flux_scale:g})",
        base.effective_flux_cm2_s * args.flux_scale,
    )
    try:
        noise = NoiseConfig(
            readback_ber=args.ber,
            transient_rate=args.transient_rate,
            sefi_rate=args.sefi_rate,
            seed=args.seed,
        )
    except ValueError as err:
        from repro.errors import ReproError

        raise ReproError(str(err)) from err
    system = OnOrbitSystem(
        device,
        golden,
        n_devices=args.n_devices,
        environment=env,
        seed=args.seed,
        noise=noise,
    )
    report = system.fly(args.hours * 3600.0)
    print(report.summary())
    print(f"state of health: {report.soh.summary()}")
    for kind in (
        ScrubEventKind.FALSE_ALARM,
        ScrubEventKind.RETRY,
        ScrubEventKind.ESCALATION,
        ScrubEventKind.SEFI_RECOVERY,
        ScrubEventKind.QUARANTINE,
    ):
        print(f"  {kind.name:<14} {report.soh.count(kind)}")
    print(f"fleet availability: {100 * report.device_availability:.4f}%")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render_report

    trace = load_trace(args.trace_file)
    if args.report_json:
        import json

        from repro.obs.report import report_dict

        print(json.dumps(report_dict(trace), indent=1))
    else:
        print(render_report(trace), end="")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.distributed import run_worker

    return run_worker(
        args.connect,
        persist=args.persist,
        hb_interval_s=args.hb_interval,
        connect_timeout_s=args.connect_timeout,
        join_timeout_s=args.join_timeout,
        name=args.name,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, run_server

    return run_server(
        ServiceConfig(
            listen=args.listen,
            state=args.state,
            job_workers=args.job_workers,
            max_running_per_tenant=args.max_running,
            max_queued_per_tenant=args.max_queued,
            announce=args.announce,
        )
    )


_COMMANDS = {
    "devices": lambda args: _cmd_devices(),
    "implement": _cmd_implement,
    "campaign": _cmd_campaign,
    "multibit": _cmd_multibit,
    "bist-coverage": _cmd_bist_coverage,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "orbit": _cmd_orbit,
    "scrub-stress": _cmd_scrub_stress,
    "report": _cmd_report,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
}


#: command-line dest -> :class:`~repro.engine.executor.ExecutorPolicy`
#: field, for the flags a command was given (set and not false)
_POLICY_ARGS = {
    "chaos": "chaos",
    "allow_partial": "allow_partial",
    "shard_attempts": "max_attempts",
    "transport": "transport",
    "listen": "listen",
    "announce": "announce",
    "workers": "min_workers",
}


def main(argv: list[str] | None = None) -> int:
    from contextlib import nullcontext

    from repro.engine.cache import result_cache_scope
    from repro.engine.chaos import ChaosPolicy
    from repro.engine.executor import executor_policy
    from repro.errors import ReproError
    from repro.obs import observe

    args = build_parser().parse_args(argv)
    overrides = {
        field: value
        for dest, field in _POLICY_ARGS.items()
        if (value := getattr(args, dest, None)) is not None and value is not False
    }
    if "chaos" in overrides:
        try:
            overrides["chaos"] = ChaosPolicy.parse(overrides["chaos"])
        except ReproError as err:
            print(f"repro: error: {err}", file=sys.stderr)
            return 2
    cache_dir = getattr(args, "result_cache", None)
    if getattr(args, "transport", None) == "tcp" and getattr(args, "jobs", 0) in (None, 1):
        # A TCP campaign must take the sharded path (jobs picks the shard
        # count, not a local pool size); never let the serial default
        # bypass the transport.
        args.jobs = max(2, getattr(args, "workers", None) or 0)
    try:
        # Commands without --trace/--progress fall through as a no-op
        # observe() scope (null tracer, null progress); likewise the
        # executor_policy scope is the ambient default without
        # --chaos/--allow-partial/--shard-attempts, and without
        # --result-cache the inherited REPRO_RESULT_CACHE stands.
        with observe(
            getattr(args, "trace", None),
            getattr(args, "progress", False),
            label=args.command,
            resumed=bool(getattr(args, "resume", False)),
        ), executor_policy(**overrides), (
            nullcontext() if cache_dir is None else result_cache_scope(cache_dir)
        ):
            rc = _COMMANDS[args.command](args)
            sys.stdout.flush()
            return rc
    except ReproError as err:
        print(f"repro: error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early (``repro ... | head -1``).  Point stdout at
        # devnull so the interpreter's exit flush of what is still
        # buffered does not raise again, and fail without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
