"""The service-mix workload: ``repro serve`` driven by closed-loop clients.

Two client threads each submit their seeded job list
(:func:`workloads.service_jobs`) one job at a time, waiting for each to
finish before sending the next, until the measuring window closes.
Half the submissions repeat an earlier job of the same client, so the
service answers them from its result cache.  Every result's bytes are
hashed and checked: the golden campaign against
``tests/utils/goldens.py``, duplicates against their cold twins, and —
for a pinned seed — every job against ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

import ledger
import measure
import workloads

POLL_S = 0.05
HTTP_TIMEOUT_S = 60.0
TERMINAL = ("done", "failed", "cancelled")


class HttpError(Exception):
    """A non-2xx reply or a failed connection."""


def _request(base: str, method: str, path: str, body: dict | None = None) -> tuple[bytes, dict]:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
            return resp.read(), dict(resp.headers)
    except (urllib.error.URLError, OSError) as err:
        raise HttpError(f"{method} {path}: {err}") from err


class Server:
    """One ``repro serve`` process with its own state and cache dirs."""

    def __init__(self, root: str, workdir: str, env: dict[str, str]):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.base = ""

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for ``/healthz``; returns the seconds it took."""
        os.makedirs(self.workdir, exist_ok=True)
        announce = os.path.join(self.workdir, "addr")
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--state", os.path.join(self.workdir, "state"),
            "--announce", announce,
            "--job-workers", "2",
            "--result-cache", os.path.join(self.workdir, "cache"),
        ]
        log = open(os.path.join(self.workdir, "server.log"), "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=log, stderr=log,
                start_new_session=True,
            )
        finally:
            log.close()
        try:
            return self._await_health(announce, t0, t0 + timeout)
        except BaseException:
            self.stop()
            raise

    def _await_health(self, announce: str, t0: float, deadline: float) -> float:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} during start-up")
            if os.path.exists(announce):
                with open(announce, encoding="utf-8") as fh:
                    self.base = "http://" + fh.read().strip()
                try:
                    _request(self.base, "GET", "/healthz")
                    return time.perf_counter() - t0
                except HttpError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /healthz in time")

    def stop(self, leftovers: set[int] = frozenset()) -> None:
        """SIGINT (graceful), then SIGKILL whatever of the tree is left."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        for pid in leftovers - {self.proc.pid}:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None


@dataclass
class Outcome:
    """What the clients saw over one measuring window."""

    jobs: list[dict] = field(default_factory=list)
    http_errors: int = 0
    failures: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, why: str) -> None:
        with self.lock:
            self.failures.append(why)


def _run_job(base: str, job: dict, out: Outcome) -> dict:
    t0 = time.perf_counter()
    body, _ = _request(base, "POST", "/v1/jobs", job["spec"])
    submit_s = time.perf_counter() - t0
    reply = json.loads(body)
    rec = reply["job"]
    while rec["state"] not in TERMINAL:
        time.sleep(POLL_S)
        rec = json.loads(_request(base, "GET", f"/v1/jobs/{rec['id']}")[0])
    entry = {
        "label": job["label"],
        "twin": job["twin"],
        "cached": bool(rec.get("cached")),
        "state": rec["state"],
        "submit_s": submit_s,
        "submitted_at": rec["submitted_at"],
        "started_at": rec.get("started_at"),
        "finished_at": rec.get("finished_at"),
        "sha": None,
        "n_candidates": 0,
        "backend": None,
    }
    if rec["state"] != "done":
        out.fail(f"{job['label']} ({rec['id']}) ended {rec['state']}: {rec.get('error')}")
        return entry
    verdicts, headers = _request(base, "GET", f"/v1/jobs/{rec['id']}/result")
    entry["sha"] = hashlib.sha256(verdicts).hexdigest()
    if entry["sha"] != rec.get("verdict_sha256") or entry["sha"] != headers.get("X-Verdict-SHA256"):
        out.fail(f"{job['label']}: result bytes disagree with the job record's SHA")
    meta = json.loads(_request(base, "GET", f"/v1/jobs/{rec['id']}/meta")[0])
    entry["n_candidates"] = int(meta.get("n_candidates") or 0)
    entry["backend"] = (meta.get("telemetry") or {}).get("backend")
    return entry


def _client(base: str, jobs: list[dict], deadline: float, out: Outcome) -> None:
    for job in jobs:
        if time.perf_counter() >= deadline:
            return
        try:
            entry = _run_job(base, job, out)
        except HttpError as err:
            with out.lock:
                out.http_errors += 1
            out.fail(str(err))
            continue
        with out.lock:
            out.jobs.append(entry)


def drive(base: str, seed: int, seconds: float) -> Outcome:
    """Run the closed loop against ``base`` for ``seconds``."""
    out = Outcome()
    deadline = time.perf_counter() + seconds
    # Far more jobs than any window can finish; clients stop at the deadline.
    lists = [workloads.service_jobs(seed, c, 400) for c in range(workloads.N_CLIENTS)]
    threads = [
        threading.Thread(target=_client, args=(base, jobs, deadline, out), name=f"client-{c}")
        for c, jobs in enumerate(lists)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def check(out: Outcome, golden_sha: str, pins: dict[str, str]) -> None:
    """Verdict checks: golden job, duplicates vs cold twins, pins."""
    by_label = {j["label"]: j for j in out.jobs}
    for job in out.jobs:
        if job["sha"] is None:
            continue
        if job["label"] == "c0-0" and job["sha"] != golden_sha:
            out.fail(f"golden campaign SHA {job['sha'][:16]} != seu_verdicts {golden_sha[:16]}")
        twin = by_label.get(job["twin"]) if job["twin"] else None
        if twin is not None and twin["sha"] is not None and twin["sha"] != job["sha"]:
            out.fail(f"{job['label']}: duplicate bytes differ from cold twin {twin['label']}")
        pinned = pins.get(job["label"])
        if pinned is not None and pinned != job["sha"]:
            out.fail(f"{job['label']}: SHA {job['sha'][:16]} != pinned {pinned[:16]}")


def summarize(out: Outcome, steal: float) -> dict:
    """End-to-end and service-layer figures of one window.

    Times are net of ``steal``, the share of the window's CPU time the
    hypervisor gave to other guests (``measure.NetClock``).
    """
    done = [j for j in out.jobs if j["state"] == "done"]
    cold = [j for j in done if not j["cached"]]
    cached = [j for j in done if j["cached"]]
    net = 1.0 - steal
    makespan = 0.0
    if done:
        first = min(j["submitted_at"] for j in done)
        makespan = net * (max(j["finished_at"] for j in done) - first)
    return {
        "n_done": len(done),
        "n_cold": len(cold),
        "makespan_s": makespan,
        "cold_latencies": [net * (j["finished_at"] - j["submitted_at"]) for j in cold],
        "queue_waits": [net * (j["started_at"] - j["submitted_at"]) for j in cold],
        "run_times": [net * (j["finished_at"] - j["started_at"]) for j in cold],
        "cached_submits": [net * j["submit_s"] for j in cached],
        "jobs_per_s": len(done) / makespan if makespan > 0 else 0.0,
        "cand_per_s": sum(j["n_candidates"] for j in cold) / makespan if makespan > 0 else 0.0,
        "cache_hit_rate": len(cached) / len(done) if done else 0.0,
        "jobs_failed": sum(1 for j in out.jobs if j["state"] != "done"),
    }


def job_process_layers(sink_dir: str, server_pid: int, steal: float) -> dict[str, float]:
    """Per-job-process medians of the spans the job hook streamed, net
    of ``steal`` like every other time."""
    per_proc = [
        ledger.totals(spans)
        for pid, spans in ledger.read_sink(sink_dir).items()
        if pid != server_pid
    ]
    per_proc = [t for t in per_proc if "service.job_process" in t]

    def med(name: str) -> float:
        return (1.0 - steal) * measure.median(
            [t.get(name, {}).get("seconds", 0.0) for t in per_proc]
        )

    layers = {f"{layer}_s": med(layer) for layer in ledger.PLACE_STAGES.values()}
    layers["place.implement_s"] = med("place.implement")
    layers["service.job_process_p50_s"] = med("service.job_process")
    return layers
