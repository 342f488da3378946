"""Tests of the benchmark itself: inputs, metric names, ledger arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import rep
import run
import service_mix
import workloads

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}


# -- the seed changes the generated inputs, deterministically ------------------


def test_sweep_inputs_follow_the_seed():
    assert workloads.seu_inputs(3) == workloads.seu_inputs(3)
    assert workloads.seu_inputs(3) != workloads.seu_inputs(4)
    assert workloads.bist_inputs(3) == workloads.bist_inputs(3)
    assert workloads.bist_inputs(3) != workloads.bist_inputs(4)


def test_bist_fault_sample_follows_the_seed():
    from repro.bist.faults import sample_faults
    from repro.bist.patterns import clb_test_design
    from repro.engine import implemented_design

    inp = workloads.bist_inputs(0)
    probe = implemented_design(clb_test_design(inp.register_pairs, 8, variant=0), inp.device)

    def faults(seed: int) -> list[str]:
        fault_seed = workloads.bist_inputs(seed).fault_seed
        return [str(f) for f in sample_faults(probe.decoded, 50, seed=fault_seed)]

    assert faults(1) == faults(1)
    assert faults(1) != faults(2)


def test_service_jobs_follow_the_seed():
    assert workloads.service_jobs(5, 0, 40) == workloads.service_jobs(5, 0, 40)
    assert workloads.service_jobs(5, 1, 40) != workloads.service_jobs(6, 1, 40)


def test_service_jobs_are_distinct_cold_jobs_and_exact_duplicates():
    lists = [workloads.service_jobs(11, c, 60) for c in range(workloads.N_CLIENTS)]
    cold = [j for jobs in lists for j in jobs if j["twin"] is None]
    keys = [json.dumps({k: v for k, v in j["spec"].items() if k != "tenant"}, sort_keys=True)
            for j in cold]
    assert len(set(keys)) == len(keys), "two cold jobs would share a result-cache slot"
    assert lists[0][0]["spec"]["flags"] == workloads.GOLDEN_CAMPAIGN["flags"]
    for jobs in lists:
        seen = {}
        for job in jobs:
            if job["twin"] is None:
                seen[job["label"]] = job["spec"]
            else:
                assert seen[job["twin"]] == job["spec"]  # an earlier job of this client
        assert sum(j["twin"] is not None for j in jobs) == len(jobs) // 2


def test_service_specs_parse_as_repro_commands():
    from repro.service.schemas import spec_from_json

    for job in workloads.service_jobs(2, 1, 12):
        spec_from_json(job["spec"])


# -- every metric printed matches BENCHMARK.json -------------------------------


def _fake_rep(traced: bool) -> dict:
    from repro.engine.telemetry import CampaignTelemetry

    recorder = ledger.Recorder()
    with recorder.span("engine.sweep"):
        recorder.leaf("seu.prefilter", 0.0, 0.5, 1)
    telem = CampaignTelemetry(n_candidates=10, jobs=1)
    out = {"traced": traced, "setup_s": 1.0, "sweep_s": 2.0, "n_candidates": 10,
           "parent_wall_s": 3.5, "steal": 0.0, "peak_rss_mb": 60.0, "wall_s": 3.4, "jobs": 1}
    out.update(rep._ledger(recorder, {}, 3.4, 2.0, telem))
    return out


def _fake_service_stats() -> dict:
    entry = {"label": "c0-0", "twin": None, "cached": False, "state": "done", "submit_s": 0.01,
             "submitted_at": 10.0, "started_at": 10.1, "finished_at": 11.0, "sha": "x",
             "n_candidates": 5}
    dup = dict(entry, label="c0-1", twin="c0-0", cached=True, started_at=None,
               submitted_at=11.1, finished_at=11.1)
    return service_mix.summarize(service_mix.Outcome(jobs=[entry, dup]), steal=0.0)


def test_sweep_metric_names_match_the_contract():
    metrics, samples = run.sweep_metrics([_fake_rep(False)])
    assert set(metrics) == END_TO_END
    assert set(samples) <= END_TO_END
    layers = run.sweep_layers([_fake_rep(True)], metrics["cold_job_p50_s"])
    assert set(layers) <= PER_LAYER


def test_service_metric_names_match_the_contract():
    stats = _fake_service_stats()
    assert set(run.service_metrics(stats, [0.5], 100.0)) == END_TO_END
    job_layers = {"place.implement_s": 0.3, "service.job_process_p50_s": 0.8}
    layers = dict(job_layers, **run.service_layers(stats, stats, 0, job_layers))
    assert set(layers) <= PER_LAYER


def test_every_listed_layer_is_measured_by_some_workload(tmp_path):
    sweep = set(run.sweep_layers([_fake_rep(True)], 1.0))
    (tmp_path / "w-1.txt").write_text("")
    job_layers = service_mix.job_process_layers(str(tmp_path), server_pid=0, steal=0.0)
    stats = _fake_service_stats()
    service = set(job_layers) | set(run.service_layers(stats, stats, 0, job_layers))
    assert sweep | service == PER_LAYER


def test_printed_names_and_result_line(capsys):
    metrics, samples = run.sweep_metrics([_fake_rep(False)])
    result = {"wall_s": 1.0, "steal_share": 0.0, "backend": "reference", "env": {},
              "metrics": metrics, "samples": samples,
              "layers": run.sweep_layers([_fake_rep(True)], 3.5),
              "tables": [], "attempted": 1, "failed": 0, "problems": []}
    for trace, listed in ((False, CONTRACT["end_to_end"]), (True, CONTRACT["per_layer"])):
        run.report("seu-serial", 0, 1.0, trace, result, CONTRACT)
        lines = capsys.readouterr().out.splitlines()
        printed = [line.split()[0] for line in lines if line.startswith("  ")]
        assert printed == [m["name"] for m in listed]
        selected = run.select_metrics(result, CONTRACT, trace)
        assert list(selected) == [m["name"] for m in listed]
        assert all(v["unit"] == m["unit"] for v, m in zip(selected.values(), listed))


def test_unlisted_metric_is_refused():
    metrics, samples = run.sweep_metrics([_fake_rep(False)])
    with pytest.raises(KeyError):
        run.select_metrics({"metrics": dict(metrics, bogus=1.0)}, CONTRACT, False)


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WHY)
    assert [w["why"] for w in CONTRACT["workloads"]] == list(workloads.WHY.values())
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


# -- the ledger table ----------------------------------------------------------


def test_self_times_and_remainder_on_synthetic_spans():
    spans = [
        ("root", -1, 0.0, 10.0, 0),
        ("a", 0, 1.0, 4.0, 0),
        ("gc", 1, 2.0, 3.0, 0),
        ("b", 0, 5.0, 6.0, 0),
        ("b", 0, 7.0, 8.0, 0),
    ]
    assert ledger.self_times(spans) == [5.0, 2.0, 1.0, 1.0, 1.0]
    rows, remainder = ledger.ledger_table(spans, wall=12.0)
    assert dict((n, s) for n, s, _ in rows) == {"root": 5.0, "a": 2.0, "gc": 1.0, "b": 2.0}
    assert remainder == 2.0


def test_tiny_sweep_remainder_is_wall_minus_layers_and_verdicts_unchanged():
    import hashlib
    import time

    from repro.designs import get_design
    from repro.engine import prime_design_cache, run_serial
    from repro.fpga import get_device
    from repro.place import implement
    from repro.seu import CampaignConfig
    from repro.seu.campaign import SEUFaultModel

    hw = implement(get_design("MULT2"), get_device("S8"))
    prime_design_cache(hw)
    config = CampaignConfig(detect_cycles=24, persist_cycles=8, stride=41, batch_size=16)
    plain = SEUFaultModel(hw.spec, hw.device.name, config)
    recorder = ledger.Recorder()
    t0 = time.perf_counter()
    timed = ledger.timed_model(plain, recorder, "seu")
    ctx = timed.build_context()
    with recorder.span("engine.sweep"):
        traced = run_serial(timed, batch_size=16, context=ctx)
    wall = time.perf_counter() - t0

    rows, remainder = ledger.ledger_table(recorder.spans, wall)
    assert remainder == pytest.approx(wall - sum(s for _, s, _ in rows), abs=1e-12)
    assert 0.0 <= remainder < wall
    names = {n for n, _, _ in rows}
    assert {"seu.context", "seu.prefilter", "netlist.kernel", "engine.sweep"} <= names

    untraced = run_serial(plain, batch_size=16)
    sha = lambda s: hashlib.sha256(s.verdicts.tobytes()).hexdigest()  # noqa: E731
    assert sha(traced) == sha(untraced)
    assert timed.key() == plain.key() and timed.collapsible == plain.collapsible
    assert timed.fast_forward_cycle() == plain.fast_forward_cycle()


def test_forked_worker_spans_come_back_through_the_sink(tmp_path):
    recorder = ledger.Recorder(sink_dir=str(tmp_path))
    recorder.leaf("parent.only", 0.0, 1.0)
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        recorder.leaf("netlist.kernel", 1.0, 3.0, 7)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert status == 0
    per_pid = ledger.read_sink(str(tmp_path))
    assert per_pid == {pid: [("netlist.kernel", -1, 1.0, 3.0, 7)]}
    assert [s[0] for s in recorder.spans] == ["parent.only"]


def test_place_hook_times_implement_and_its_stages(tmp_path):
    script = (
        "import ledger\n"
        "r = ledger.Recorder()\n"
        "ledger.install_place_hook(r)\n"
        "from repro.designs import get_design\n"
        "from repro.fpga import get_device\n"
        "from repro.place import implement\n"
        "implement(get_design('MULT2'), get_device('S8'))\n"
        "print(sorted((n, p) for n, p, *_ in r.spans))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == str(sorted([
        ("place.implement", -1), ("place.place", 0), ("place.route", 0),
        ("place.bitgen", 0), ("place.decode", 0),
    ]))


# -- outside a checkout ----------------------------------------------------------


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seu-serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "not a repository checkout" in proc.stderr
