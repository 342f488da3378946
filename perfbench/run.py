#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload seu-serial --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics listed in ``BENCHMARK.json``; ``--trace 1`` is a separate run
whose spans (recorded around calls into the program's public
functions, see ``ledger.py``) give the per-layer metrics and the
"where the wall went" table.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Each sweep repetition runs in a fresh interpreter with a scrubbed
environment (no ``REPRO_*`` variable survives, the result cache is off,
temporary files stay under ``.perfbench_tmp/``), so nothing a previous
repetition computed can serve the next one.  See ``README.md`` beside
this file for the workloads and how to read the output.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import ledger
import measure
import service_mix
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
#: a run must end within this many seconds of starting
HARD_LIMIT_S = 170.0
#: layer values that are deterministic per seed: they must repeat exactly
EXACT = (
    "seu.prefilter_calls",
    "seu.prefilter_settled_frac",
    "engine.collapse_rate",
    "engine.checkpoints",
    "engine.shards",
    "netlist.batches",
    "netlist.machines",
    "netlist.retire_rate",
    "netlist.machine_cycles_saved",
)
#: env the program would otherwise pick run settings or caches up from
SCRUBBED_PREFIXES = ("REPRO_", "PERFBENCH_")


class CheckoutError(Exception):
    """The benchmark is not sitting in a repository checkout."""


def check_checkout() -> dict:
    """The benchmark contract, read from the checkout (raises if absent)."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "repro" / "__init__.py",
              ROOT / "tests" / "utils" / "goldens.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise CheckoutError(f"not a repository checkout (missing {', '.join(missing)})")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env(tmp: Path, extra_path: str | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(SCRUBBED_PREFIXES)}
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra_path if extra_path else "")
    env["TMPDIR"] = str(tmp)
    return env


def provenance(reps_backend: str | None, env: dict[str, str]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        rev = proc.stdout.strip() or None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "backend": reps_backend,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in env.items() if k.startswith("REPRO_")},
    }


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


# -- sweep workloads -----------------------------------------------------------


def launch_rep(name: str, seed: int, traced: bool, workdir: Path, deadline: float) -> dict:
    """One repetition in a fresh interpreter; the record it wrote, plus
    the parent-side wall time, tree peak RSS and any problems."""
    workdir.mkdir(parents=True)
    out = workdir / "rep.json"
    argv = [sys.executable, str(HERE / "rep.py"), "--workload", name, "--seed", str(seed),
            "--out", str(out), "--checkpoint", str(workdir / "checkpoint.npz")]
    sink = workdir / "spans"
    if traced:
        sink.mkdir()
        argv += ["--trace-dir", str(sink)]
    env = child_env(workdir)
    env["REPRO_RESULT_CACHE"] = "off"
    with open(workdir / "rep.log", "wb") as log, measure.NetClock() as clock:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=log)
        with measure.TreeSampler(proc.pid) as sampler:
            try:
                rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                rc = proc.wait()
    rep = {"traced": traced, "parent_wall_s": clock.wall_s, "steal": clock.steal,
           "peak_rss_mb": sampler.peak_mb, "problems": [], "env": env}
    if rc != 0 or not out.is_file():
        tail = (workdir / "rep.log").read_text(errors="replace")[-600:]
        rep["problems"].append(f"repetition exited {rc}: {tail}")
        return rep
    with open(out, encoding="utf-8") as fh:
        rep.update(json.load(fh))
    if rep["telemetry"]["shards_quarantined"]:
        rep["problems"].append(f"{rep['telemetry']['shards_quarantined']} shard(s) quarantined")
    return rep


def run_sweeps(
    name: str, seed: int, seconds: float, trace: bool, tmp: Path, t_start: float
) -> dict:
    """Repetitions until ``seconds`` are spent (at least 3; traced runs
    alternate untraced and traced repetitions).

    Another repetition starts while its expected midpoint falls inside
    the budget, so the count rounds to the nearest whole number of
    repetitions rather than dropping one whenever the host runs slow.
    """
    min_reps = 4 if trace else 3
    reps: list[dict] = []
    deadline = t_start + HARD_LIMIT_S
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(launch_rep(name, seed, traced, tmp / f"rep-{len(reps)}", deadline))
        elapsed = time.perf_counter() - t_start
        est = measure.median([r["parent_wall_s"] for r in reps])
        if reps[-1]["problems"] and "sha" not in reps[-1]:
            break  # a repetition that crashed will crash again
        if elapsed + est > HARD_LIMIT_S - 5:
            break
        if len(reps) >= min_reps and elapsed + est / 2 > seconds:
            break
    check_sweeps(name, seed, reps)
    good = [r for r in reps if "sha" in r]
    untraced = [r for r in good if not r["traced"]]
    traced_reps = [r for r in good if r["traced"]]
    metrics, samples = sweep_metrics(untraced)
    layers: dict[str, float] = {}
    tables: list[str] = []
    if traced_reps:
        layers = sweep_layers(traced_reps, metrics["cold_job_p50_s"])
        rep = sorted(traced_reps, key=lambda r: r["wall_s"])[len(traced_reps) // 2]
        tables.append(ledger.format_table(
            f"where the wall went: {name}, one traced repetition",
            [tuple(r) for r in rep["table"]["rows"]], rep["wall_s"], rep["table"]["remainder"],
        ))
        if rep["worker_table"]["rows"]:
            tables.append(ledger.format_table(
                f"worker capacity ({rep['jobs']} jobs x sweep wall)",
                [tuple(r) for r in rep["worker_table"]["rows"]],
                rep["worker_table"]["capacity"], None,
            ))
    return {
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["problems"]),
        "problems": [p for r in reps for p in r["problems"]],
        "metrics": metrics,
        "samples": samples,
        "layers": layers,
        "tables": tables,
        "backend": good[0]["backend"] if good else None,
        "env": reps[0]["env"],
        "observed": {"sha": good[0]["sha"]} if good else {},
    }


def sweep_metrics(untraced: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of untraced repetitions, and their samples.

    Times are net of hypervisor steal (see ``measure.NetClock``), using
    the share stolen during each repetition.
    """
    samples = {
        "setup_s": [r["setup_s"] * (1 - r["steal"]) for r in untraced],
        "cand_per_s": [r["n_candidates"] / (r["sweep_s"] * (1 - r["steal"])) for r in untraced],
        "cold_job_p50_s": [r["parent_wall_s"] * (1 - r["steal"]) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    metrics = {name: measure.median(values) for name, values in samples.items()}
    walls = sum(samples["cold_job_p50_s"])
    metrics["jobs_per_s"] = len(untraced) / walls if walls > 0 else 0.0
    return metrics, samples


def sweep_layers(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    """Per-layer medians over traced repetitions, plus tracing overhead.

    Seconds are net of the steal measured around each repetition.
    """
    def net(r: dict, key: str) -> float:
        return r["layers"][key] * (1 - r["steal"]) if key.endswith("_s") else r["layers"][key]

    layers = {key: measure.median([net(r, key) for r in traced]) for key in traced[0]["layers"]}
    wall = measure.median([r["parent_wall_s"] * (1 - r["steal"]) for r in traced])
    layers["trace.overhead"] = wall / untraced_wall if untraced_wall > 0 else 0.0
    return layers


def check_sweeps(name: str, seed: int, reps: list[dict]) -> None:
    """Every repetition's verdicts agree (traced or not) and match the pin;
    deterministic layer counts repeat exactly."""
    pinned = load_pins().get(name, {}).get(str(seed))
    good = [r for r in reps if "sha" in r]
    if not good:
        return
    ref = pinned or good[0]["sha"]
    for r in good:
        if r["sha"] != ref:
            what = "pinned" if pinned else "first repetition's"
            r["problems"].append(f"verdict SHA {r['sha'][:16]} != {what} {ref[:16]}")
    traced = [r for r in good if r["traced"]]
    for r in traced[1:]:
        for key in EXACT:
            if r["layers"][key] != traced[0]["layers"][key]:
                r["problems"].append(
                    f"{key} = {r['layers'][key]} does not repeat ({traced[0]['layers'][key]})"
                )


# -- service-mix ---------------------------------------------------------------


def run_service(seed: int, seconds: float, trace: bool, tmp: Path, t_start: float) -> dict:
    from tests.utils.goldens import golden

    golden_sha = golden("seu_verdicts")
    pins = load_pins().get("service-mix", {}).get(str(seed), {})
    env = child_env(tmp)
    setups: list[float] = []

    def window(
        server: service_mix.Server, length: float
    ) -> tuple[service_mix.Outcome, float, float]:
        """Drive a started server for ``length`` seconds, then stop it;
        the outcome, peak tree RSS and the share of CPU time stolen."""
        sampler = measure.TreeSampler(server.proc.pid)
        try:
            with sampler, measure.NetClock() as clock:
                out = service_mix.drive(server.base, seed, max(1.0, length))
        finally:
            server.stop(sampler.seen)
        service_mix.check(out, golden_sha, pins)
        return out, sampler.peak_mb, clock.steal

    if not trace:
        # Three cold launches give the set-up samples; the last one serves.
        for k in range(3):
            if k:
                server.stop()
            server = service_mix.Server(str(ROOT), str(tmp / f"server-{k}"), env)
            with measure.NetClock() as clock:
                server.start()
            setups.append(clock.net_s)
        outs = [window(server, seconds - (time.perf_counter() - t_start))]
    else:
        plain = service_mix.Server(str(ROOT), str(tmp / "server-untraced"), env)
        plain.start()
        outs = [window(plain, seconds / 2)]
        sink = tmp / "spans"
        sink.mkdir()
        traced_env = child_env(tmp, str(HERE / "hook"))
        traced_env["PERFBENCH_SPAN_DIR"] = str(sink)
        server = service_mix.Server(str(ROOT), str(tmp / "server-traced"), traced_env)
        server.start()
        server_pid = server.proc.pid
        outs.append(window(server, seconds / 2))

    if trace:
        # Tracing must not change a byte: jobs both windows ran agree.
        plain_shas = {j["label"]: j["sha"] for j in outs[0][0].jobs if j["sha"]}
        for job in outs[1][0].jobs:
            if job["sha"] and plain_shas.get(job["label"], job["sha"]) != job["sha"]:
                outs[1][0].fail(f"{job['label']}: traced bytes differ from the untraced window")
    stats = [service_mix.summarize(out, steal) for out, _, steal in outs]
    metrics = service_metrics(stats[-1], setups, outs[-1][1])
    layers: dict[str, float] = {}
    tables: list[str] = []
    if trace:
        layers = service_mix.job_process_layers(str(sink), server_pid, outs[-1][2])
        layers.update(service_layers(stats[0], stats[-1], outs[-1][0].http_errors, layers))
        cold_p50 = metrics["cold_job_p50_s"]
        rows = [
            ("service.queue_wait", layers["service.queue_wait_p50_s"]),
            ("place.implement", layers["place.implement_s"]),
            ("service.job_process (self)",
             layers["service.job_process_p50_s"] - layers["place.implement_s"]),
        ]
        tables.append(ledger.format_table(
            "where a cold job's latency went: service-mix, medians over traced jobs",
            [(n, sec, sec / cold_p50 if cold_p50 else 0.0) for n, sec in rows],
            cold_p50, layers["trace.unattributed_s"],
        ))
    problems = [p for out, _, _ in outs for p in out.failures]
    jobs = [j for out, _, _ in outs for j in out.jobs]
    return {
        "attempted": sum(len(out.jobs) + out.http_errors for out, _, _ in outs),
        "failed": len(problems),
        "problems": problems,
        "metrics": metrics,
        "samples": {"setup_s": setups, "cold_job_p50_s": stats[-1]["cold_latencies"]},
        "layers": layers,
        "tables": tables,
        "backend": next((j["backend"] for j in jobs if j["backend"]), None),
        "env": env,
        "observed": {j["label"]: j["sha"] for j in jobs if j["sha"] and not j["twin"]},
    }


def service_metrics(stats: dict, setups: list[float], peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of one measuring window."""
    return {
        "setup_s": measure.median(setups),
        "cand_per_s": stats["cand_per_s"],
        "cold_job_p50_s": measure.median(stats["cold_latencies"]),
        "jobs_per_s": stats["jobs_per_s"],
        "peak_rss_mb": peak_rss_mb,
    }


def service_layers(
    untraced: dict, traced: dict, http_errors: int, job_layers: dict[str, float]
) -> dict[str, float]:
    """Service-layer figures of the traced window, its overhead against
    the untraced one, and what of a cold job's p50 no layer covers."""
    cold_p50 = measure.median(traced["cold_latencies"])
    queue_wait = measure.median(traced["queue_waits"])
    return {
        "service.queue_wait_p50_s": queue_wait,
        "service.run_p50_s": measure.median(traced["run_times"]),
        "service.cached_submit_p50_s": measure.median(traced["cached_submits"]),
        "service.http_errors": http_errors,
        "service.jobs_failed": traced["jobs_failed"],
        "engine.cache_hit_rate": traced["cache_hit_rate"],
        "trace.overhead": cold_p50 / measure.median(untraced["cold_latencies"]),
        "trace.unattributed_s": cold_p50 - queue_wait - job_layers["service.job_process_p50_s"],
    }


# -- entry point ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in one mode; the result before metric selection."""
    t_start = time.perf_counter()
    cpu0 = measure.cpu_times()
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}-{'t' if trace else 'u'}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if name == "service-mix":
            result = run_service(seed, seconds, trace, tmp, t_start)
        else:
            result = run_sweeps(name, seed, seconds, trace, tmp, t_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    result["wall_s"] = time.perf_counter() - t_start
    result["steal_share"] = measure.steal_share(cpu0, measure.cpu_times())
    return result


def select_metrics(result: dict, contract: dict, trace: bool) -> dict:
    """Exactly the metrics BENCHMARK.json lists for this mode.

    A layer the workload never entered reads 0; every end-to-end metric
    must have been measured, and nothing unlisted may be reported.
    """
    listed = contract["per_layer"] if trace else contract["end_to_end"]
    values = result["layers"] if trace else result["metrics"]
    unlisted = set(values) - {m["name"] for m in listed}
    if unlisted:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    out = {}
    for metric in listed:
        value = values.get(metric["name"], 0.0) if trace else values[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def report(name: str, seed: int, seconds: float, trace: bool, result: dict, contract: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== {name}  seed {seed}  {seconds:g} s  {mode}  ({result['wall_s']:.1f} s wall) ==")
    print(f"why: {workloads.WHY[name]}")
    print("provenance: " + json.dumps(provenance(result["backend"], result["env"]), sort_keys=True))
    print(f"host: the hypervisor stole {100 * result['steal_share']:.1f}% of the CPU time this run "
          "wanted; timings below are net of the steal measured around each of them")
    samples = {} if trace else result["samples"]
    for name, metric in select_metrics(result, contract, trace).items():
        extra = ""
        if name in samples:
            extra = f"   {measure.describe(samples[name])}"
            if len(samples[name]) <= 12:
                extra += " [" + ", ".join(f"{v:.4g}" for v in samples[name]) + "]"
        print(f"  {name:<30}{metric['value']:>14.6g} {metric['unit']:<6}{extra}")
    for table in result["tables"]:
        print(table)
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def repin(name: str, seed: int, result: dict) -> None:
    pins = load_pins()
    observed = result["observed"]
    if name == "service-mix":
        pins.setdefault(name, {}).setdefault(str(seed), {}).update(observed)
    else:
        pins.setdefault(name, {})[str(seed)] = observed["sha"]
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark (see README.md).")
    parser.add_argument("--workload", default="all", choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help="record this run's verdict SHAs as the pins for --seed")
    args = parser.parse_args(argv)
    try:
        contract = check_checkout()
    except CheckoutError as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))  # tests.utils.goldens, read-only
    # Byte-compile once, outside any timing, like an installed package.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])

    if args.workload == "all":
        runs = [(w, t) for w in workloads.WHY for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, trace in runs:
        result = run_workload(name, args.seed, seconds, trace)
        report(name, args.seed, seconds, trace, result, contract)
        if args.repin and not trace:
            repin(name, args.seed, result)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        selected = select_metrics(result, contract, trace)
        if len(runs) > 1:
            selected = {f"{name}.{k}": v for k, v in selected.items()}
        metrics.update(selected)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
