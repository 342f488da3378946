"""End-to-end service tests: a real ``repro serve`` over real HTTP.

Every test here boots the actual server as a subprocess on an ephemeral
loopback port (announced via a port file, the same pattern as the TCP
executor) and talks to it with plain ``urllib`` — no test doubles
between the client and the engine.  The acceptance bar is the repo's
standing one: a sweep submitted over HTTP must return verdict bytes
identical to the CLI golden SHAs, including when the answer is served
from the result cache and when the server is SIGKILLed mid-sweep and a
fresh server resumes the job from its checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.engine import load_sweep
from tests.utils.goldens import golden

pytestmark = pytest.mark.timeout(600)

REPO = Path(__file__).resolve().parents[2]

#: the golden SEU sweep as an HTTP job body (matches tests/utils/goldens.py)
SEU_SPEC = {
    "kind": "campaign",
    "design": "MULT4",
    "device": "S8",
    "flags": {"detect_cycles": 48, "persist_cycles": 32, "stride": 7, "batch_size": 32},
}

#: candidate bits of the golden SEU sweep
SEU_CANDIDATES = 23246

#: the golden MBU sweep (single_sensitivity skips the probe campaign;
#: it shapes reported statistics only, never verdict bytes)
MBU_SPEC = {
    "kind": "multibit",
    "design": "MULT4",
    "device": "S8",
    "flags": {
        "detect_cycles": 48,
        "batch_size": 32,
        "k": 2,
        "trials": 160,
        "seed": 0,
        "single_sensitivity": 0.25,
    },
}


class ServiceClient:
    """Tiny urllib client for one server address."""

    def __init__(self, address: str):
        self.base = f"http://{address}"

    def request(self, method: str, path: str, body=None, timeout=30.0):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(self.base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as err:
            return err.code, err.read(), dict(err.headers)

    def json(self, method: str, path: str, body=None):
        status, raw, _ = self.request(method, path, body)
        return status, json.loads(raw)

    def submit(self, spec: dict) -> dict:
        status, body = self.json("POST", "/v1/jobs", spec)
        assert status == 202, body
        return body

    def wait(self, job_id: str, timeout_s: float = 480.0) -> dict:
        deadline = time.monotonic() + timeout_s
        while True:
            status, rec = self.json("GET", f"/v1/jobs/{job_id}")
            assert status == 200, rec
            if rec["state"] in ("done", "failed", "cancelled"):
                return rec
            assert time.monotonic() < deadline, f"job {job_id} stuck: {rec}"
            time.sleep(0.3)

    def result(self, job_id: str) -> tuple[bytes, dict]:
        status, raw, headers = self.request("GET", f"/v1/jobs/{job_id}/result")
        assert status == 200, raw
        return raw, headers


class ServerHandle:
    def __init__(self, proc: subprocess.Popen, address: str, state: Path, log: Path):
        self.proc = proc
        self.address = address
        self.state = state
        self.log = log
        self.client = ServiceClient(address)

    def stop(self, timeout: float = 15.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5.0)

    def kill_hard(self) -> None:
        """SIGKILL the server without any shutdown courtesy."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10.0)


def _start_server(
    tmp_path: Path, *extra: str, state: str = "state", cache_env: str | None = None
) -> ServerHandle:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_RESULT_CACHE", None)  # tests opt in explicitly
    if cache_env is not None:
        env["REPRO_RESULT_CACHE"] = cache_env
    port_file = tmp_path / f"port-{time.monotonic_ns()}.txt"
    log = tmp_path / "server.log"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0",
         "--state", str(tmp_path / state),
         "--announce", str(port_file),
         *extra],
        env=env,
        cwd=str(REPO),
        stdout=subprocess.DEVNULL,
        stderr=open(log, "ab"),
        start_new_session=True,
    )
    deadline = time.monotonic() + 60.0
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            raise AssertionError(f"server never announced: {log.read_text()}")
        time.sleep(0.05)
    address = port_file.read_text().strip()
    return ServerHandle(proc, address, tmp_path / state, log)


@pytest.fixture()
def server(tmp_path):
    handle = _start_server(tmp_path, "--job-workers", "2")
    yield handle
    handle.stop()


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` exists and is not a zombie awaiting reaping."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            # field 3 is the state letter; the comm field can contain
            # spaces but not ')', so split after the last ')'.
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _orphan_pids(state: Path) -> list[int]:
    pids = []
    jobs_dir = state / "jobs"
    if jobs_dir.exists():
        for record in jobs_dir.glob("*.json"):
            try:
                pid = json.loads(record.read_text()).get("pid")
            except ValueError:
                continue
            if pid:
                pids.append(int(pid))
    return pids


class TestGoldenBytesOverHTTP:
    def test_seu_sweep_matches_cli_golden(self, server):
        body = server.client.submit(SEU_SPEC)
        assert body["cached"] is False
        rec = server.client.wait(body["job"]["id"])
        assert rec["state"] == "done", rec
        verdicts, headers = server.client.result(rec["id"])
        sha = hashlib.sha256(verdicts).hexdigest()
        assert sha == golden("seu_verdicts")
        assert headers["X-Verdict-SHA256"] == sha
        assert rec["verdict_sha256"] == sha
        _, meta = server.client.json("GET", f"/v1/jobs/{rec['id']}/meta")
        assert meta["kind"] == "campaign"
        assert meta["telemetry"] is not None

    def test_mbu_sweep_matches_cli_golden(self, server):
        body = server.client.submit(MBU_SPEC)
        rec = server.client.wait(body["job"]["id"])
        assert rec["state"] == "done", rec
        verdicts, _ = server.client.result(rec["id"])
        assert hashlib.sha256(verdicts).hexdigest() == golden("mbu_verdicts")

    def test_duplicate_submit_is_served_from_cache(self, server):
        first = server.client.submit(SEU_SPEC)
        rec = server.client.wait(first["job"]["id"])
        assert rec["state"] == "done"
        # Execution knobs differ; verdict bytes cannot, so it must hit.
        dup_spec = dict(SEU_SPEC, flags=dict(SEU_SPEC["flags"], jobs=2, batch_size=64))
        t0 = time.monotonic()
        dup = server.client.submit(dup_spec)
        elapsed = time.monotonic() - t0
        assert dup["cached"] is True
        dup_rec = dup["job"]
        assert dup_rec["state"] == "done"
        assert dup_rec["verdict_sha256"] == golden("seu_verdicts")
        # Cache service happens at submit time, no engine subprocess:
        # orders of magnitude under the cold run, generously bounded.
        assert elapsed < 10.0
        verdicts, headers = server.client.result(dup_rec["id"])
        assert hashlib.sha256(verdicts).hexdigest() == golden("seu_verdicts")
        assert headers["X-Job-Cached"] == "1"
        _, stats = server.client.json("GET", "/v1/stats")
        assert stats["jobs"]["cache_hits"] >= 1


class TestResultCacheChannel:
    """``repro serve`` takes its result cache from the one ambient
    channel every command uses: ``--result-cache`` overrides an
    inherited ``REPRO_RESULT_CACHE``, for the server and its jobs."""

    SPEC = {"kind": "bist-coverage", "device": "S8",
            "flags": {"faults": 16, "seed": 5, "cycles": 64}}

    def _run_fresh(self, tmp_path, state: str, *extra: str) -> tuple[dict, dict]:
        """Submit SPEC to a new server over an empty state directory, so
        no completed twin can serve it; return the submit body and the
        final stats."""
        server = _start_server(
            tmp_path, "--job-workers", "1", *extra, state=state,
            cache_env=str(tmp_path / "store"),
        )
        try:
            body = server.client.submit(self.SPEC)
            rec = server.client.wait(body["job"]["id"])
            assert rec["state"] == "done", rec
            _, stats = server.client.json("GET", "/v1/stats")
        finally:
            server.stop()
        return body, stats

    def test_result_cache_off_beats_the_env(self, tmp_path):
        body, _ = self._run_fresh(tmp_path, "cold")
        assert body["cached"] is False
        body, stats = self._run_fresh(tmp_path, "off", "--result-cache", "off")
        assert body["cached"] is False
        assert stats["jobs"]["cache_hits"] == 0
        assert stats["cache_dir"] is None
        # The store did hold the answer: a server that keeps the env serves it.
        body, stats = self._run_fresh(tmp_path, "warm")
        assert body["cached"] is True
        assert stats["jobs"]["cache_hits"] == 1


class TestLifecycle:
    def test_validation_errors_are_http_400(self, server):
        cases = [
            {"kind": "nonsense"},
            {"kind": "campaign"},  # missing design
            {"kind": "campaign", "design": "NOPE99", "flags": {}},
            {"kind": "campaign", "design": "MULT4", "device": "NOPE"},
            {"kind": "campaign", "design": "MULT4", "flags": {"bogus": 1}},
            {"kind": "campaign", "design": "MULT4", "flags": {"stride": "x"}},
            {"kind": "campaign", "design": "MULT4", "flags": {"backend": "reference"}},
            {"kind": "campaign", "design": "MULT4", "flags": {"no_collapse": True}},
            {"kind": "campaign", "design": "MULT4", "flags": {"no_retire": True}},
            {"kind": "campaign", "design": "MULT4", "priority": "urgent"},
            {"kind": "bist-coverage", "design": "MULT4"},
        ]
        for case in cases:
            status, body = server.client.json("POST", "/v1/jobs", case)
            assert status == 400, (case, body)
            assert "error" in body
            for flag in case.get("flags", {}):  # a rejected flag is named
                assert repr(flag) in body["error"], (case, body)
        status, _ = server.client.json("GET", "/v1/jobs/j-999999")
        assert status == 404

    def test_cancel_queued_job(self, tmp_path):
        # One worker slot, so the second submission sits queued.
        server = _start_server(tmp_path, "--job-workers", "1")
        try:
            first = server.client.submit(SEU_SPEC)
            queued = server.client.submit(MBU_SPEC)
            status, rec = server.client.json(
                "POST", f"/v1/jobs/{queued['job']['id']}/cancel"
            )
            assert status == 200
            assert rec["state"] == "cancelled"
            # Cancelling a settled job is a 409, not a state change.
            status, _ = server.client.json(
                "POST", f"/v1/jobs/{queued['job']['id']}/cancel"
            )
            assert status == 409
            rec = server.client.wait(first["job"]["id"])
            assert rec["state"] == "done"  # the running job was untouched
        finally:
            server.stop()

    def test_cancel_running_job_kills_the_engine(self, server):
        body = server.client.submit(SEU_SPEC)
        job_id = body["job"]["id"]
        deadline = time.monotonic() + 120.0
        while True:
            _, rec = server.client.json("GET", f"/v1/jobs/{job_id}")
            if rec["state"] == "running" and rec["pid"]:
                break
            assert rec["state"] in ("queued", "running"), rec
            assert time.monotonic() < deadline
            time.sleep(0.1)
        pid = rec["pid"]
        status, cancelled = server.client.json("POST", f"/v1/jobs/{job_id}/cancel")
        assert status == 200 and cancelled["state"] == "cancelled"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                os.killpg(pid, 0)
            except (OSError, ProcessLookupError):
                break
            time.sleep(0.2)
        else:
            pytest.fail(f"engine process group {pid} survived cancel")

    def test_stats_and_listing(self, server):
        status, body = server.client.json("GET", "/healthz")
        assert status == 200 and body["ok"] is True
        server.client.submit(SEU_SPEC)
        status, listing = server.client.json("GET", "/v1/jobs")
        assert status == 200 and len(listing["jobs"]) == 1
        status, stats = server.client.json("GET", "/v1/stats")
        assert status == 200
        assert stats["jobs"]["submitted"] == 1
        assert "by_priority" in stats["queue"]


_SSE_BLOCK = re.compile(
    r"^event: (?P<event>[a-z]+)\n(?:id: (?P<id>\d+)\n)?data: (?P<data>.*)\n$"
)


class TestSSE:
    def test_event_stream_is_well_formed_and_terminates(self, server):
        body = server.client.submit(SEU_SPEC)
        job_id = body["job"]["id"]
        req = urllib.request.Request(f"{server.client.base}/v1/jobs/{job_id}/events")
        with urllib.request.urlopen(req, timeout=480.0) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            # The server closes the stream after the terminal event, so
            # reading to EOF collects the whole well-formed sequence.
            buffer = resp.read().decode("utf-8")
        blocks = [raw + "\n" for raw in buffer.split("\n\n") if raw]
        events = []
        last_id = 0
        for raw in blocks:
            m = _SSE_BLOCK.match(raw)
            assert m is not None, f"malformed SSE block: {raw!r}"
            payload = json.loads(m.group("data"))  # every data line is JSON
            events.append((m.group("event"), payload))
            if m.group("id") is not None:
                # ids are the 1-based trace line numbers, strictly increasing
                assert int(m.group("id")) == last_id + 1
                last_id = int(m.group("id"))
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "done"
        assert kinds.count("done") == 1
        trace_events = [p for k, p in events if k == "trace"]
        assert any(p.get("ev") == "run_start" for p in trace_events)
        assert any(p.get("ev") == "span_open" for p in trace_events)
        done = events[-1][1]
        assert done["state"] == "done"
        assert done["verdict_sha256"] == golden("seu_verdicts")

    def test_report_endpoint_formats(self, server):
        body = server.client.submit(SEU_SPEC)
        rec = server.client.wait(body["job"]["id"])
        assert rec["state"] == "done"
        status, report = server.client.json(
            "GET", f"/v1/jobs/{rec['id']}/report?format=json"
        )
        assert status == 200
        assert report["segments"][0]["label"] == "campaign"
        assert report["segments"][0]["stages"]
        status, raw, headers = server.client.request(
            "GET", f"/v1/jobs/{rec['id']}/report?format=html"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert b"span tree" in raw
        status, _, _ = server.client.request(
            "GET", f"/v1/jobs/{rec['id']}/report?format=bogus"
        )
        assert status == 400


class TestRestartResume:
    def test_kill_server_mid_sweep_then_resume_to_golden(self, tmp_path):
        # Tight checkpoint cadence so the first snapshot lands early.
        spec = dict(
            SEU_SPEC, flags=dict(SEU_SPEC["flags"], checkpoint_every=200)
        )
        server = _start_server(tmp_path, "--job-workers", "1")
        job_id = None
        try:
            body = server.client.submit(spec)
            job_id = body["job"]["id"]
            checkpoint = server.state / "checkpoints" / f"{job_id}.npz"
            deadline = time.monotonic() + 300.0
            while not checkpoint.exists():
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.005)
            # Freeze the engine as soon as its first snapshot lands, so
            # the kill interrupts a running sweep however little of it
            # is left (the remainder takes ~0.1 s on a fast kernel).
            for pid in _orphan_pids(server.state):
                try:
                    os.killpg(pid, signal.SIGSTOP)
                except (OSError, ProcessLookupError):
                    os.kill(pid, signal.SIGSTOP)
        finally:
            server.kill_hard()
        # The kill came after a real intermediate checkpoint.
        part = load_sweep(str(checkpoint))
        assert 0 < part.n_candidates < SEU_CANDIDATES
        # The engine subprocess survived as an orphan; a fresh server
        # over the same state dir must reap it and resume the job.
        orphans = _orphan_pids(server.state)
        server2 = _start_server(tmp_path, "--job-workers", "1")
        try:
            rec = server2.client.wait(job_id)
            assert rec["state"] == "done", rec
            assert rec["resume"] is True
            verdicts, _ = server2.client.result(job_id)
            assert hashlib.sha256(verdicts).hexdigest() == golden("seu_verdicts")
            deadline = time.monotonic() + 15.0
            while any(_pid_alive(pid) for pid in orphans):
                assert time.monotonic() < deadline, (
                    f"orphaned engine pid(s) survived recovery: "
                    f"{[p for p in orphans if _pid_alive(p)]}"
                )
                time.sleep(0.2)
        finally:
            server2.stop()
            for pid in orphans:  # belt and braces: never leak processes
                try:
                    os.killpg(pid, signal.SIGKILL)
                except (OSError, ProcessLookupError):
                    pass


class TestStateRecords:
    def test_unreadable_record_is_dropped_with_a_note(self, tmp_path, capsys):
        """A record the store cannot parse (here: a job from before the
        shrinker flags were removed) is dropped, and stderr says which
        file and why."""
        from repro.service.jobs import JobStore
        from repro.service.schemas import spec_from_json

        root = tmp_path / "state"
        kept = JobStore(str(root)).new_job(spec_from_json(SEU_SPEC))
        record = json.loads(Path(JobStore(str(root)).record_path(kept.id)).read_text())
        record["id"] = "j-000002"
        record["spec"]["flags"]["no_retire"] = True
        (root / "jobs" / "j-000002.json").write_text(json.dumps(record))
        capsys.readouterr()

        store = JobStore(str(root))
        assert [job.id for job in store.jobs()] == [kept.id]
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert "j-000002.json" in err[0] and "'no_retire'" in err[0]
