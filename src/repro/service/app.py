"""Campaign-as-a-service: the asyncio HTTP server over the engine.

``repro serve`` turns the campaign engine into a long-lived,
multi-tenant job service — the paper's ground-segment shape, where one
control loop accepts work for nine FPGAs, schedules it, and reports
health.  The split of responsibilities is strict:

* **The engine stays pure.**  Every job executes as a ``repro``
  subprocess rendered from its validated spec
  (:meth:`~repro.service.schemas.JobSpec.to_argv`), with a
  service-owned ``--checkpoint`` and ``--trace``.  Isolation for free:
  cancel is a signal, restart-resume is the engine's own
  checkpoint contract, and the golden byte-identity
  pinned on the CLI transfers to HTTP jobs verbatim.  Specs may carry
  ``jobs``/``executor`` flags, so a single job can still fan out over
  the local pool or TCP workers.

* **The service owns scheduling, quotas, and caching.**  Submissions
  land in the weighted-priority, tenant-fair
  :class:`~repro.service.queue.JobQueue`; a fixed pool of asyncio
  worker tasks drains it.  Before any engine work, the job's
  *result key* (a content address over the verdict-determining spec
  fields) is looked up in the completed-job index and the shared
  :class:`~repro.engine.cache.ResultCache` — a duplicate sweep is
  served in O(1) without a subprocess, byte-identically.

* **Observability is ambient.**  Each job's subprocess writes a
  :mod:`repro.obs` JSONL trace the SSE endpoint tails live
  (:mod:`repro.service.sse`); the server's own lifecycle points
  (submit, start, done, cache-hit) go to the ambient tracer, so
  ``repro serve --trace`` leaves a service-level span log that
  ``repro report`` renders.

Endpoints (all JSON unless noted)::

    GET  /healthz                     liveness + version
    GET  /v1/stats                    queue/cache/tenant counters
    POST /v1/jobs                     submit a spec -> job record (202)
    GET  /v1/jobs[?state=&tenant=]    list job records
    GET  /v1/jobs/<id>                one job record
    GET  /v1/jobs/<id>/result         verdict bytes (octet-stream)
    GET  /v1/jobs/<id>/meta           model key, counts + telemetry JSON
    POST /v1/jobs/<id>/cancel         cancel queued or running
    GET  /v1/jobs/<id>/events         SSE span/heartbeat stream
    GET  /v1/jobs/<id>/report[?format=json|text|html]

The HTTP layer is stdlib asyncio only (no framework): requests are
small, responses are ``Connection: close``, and the SSE stream is the
only long-lived connection type.
"""

from __future__ import annotations

import asyncio
import hashlib
import html
import json
import os
import re
import signal
import sys
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any

from repro.engine.cache import result_cache
from repro.engine.transport import parse_hostport
from repro.errors import ReproError
from repro.obs import get_observer
from repro.service.jobs import Job, JobState, JobStore, UnknownJob
from repro.service.queue import JobQueue, QueueFull, QuotaPolicy
from repro.service.schemas import SpecError, spec_from_json
from repro.service.sse import stream_job_events

__all__ = ["ServiceConfig", "CampaignServer", "run_server"]

#: bump when the public JSON surface changes incompatibly
API_VERSION = 1

_MAX_BODY_BYTES = 1 << 20
#: Most header lines one request may carry; more is answered with 431.
_MAX_HEADERS = 100
#: Seconds a client has to deliver its whole request (line, headers and
#: body); a client that stalls past it is disconnected.  Only reading the
#: request is timed, so responses and SSE streams run as long as they need.
_REQUEST_DEADLINE_S = 5.0
_JOB_PATH = re.compile(r"/v1/jobs/(j-\d+)(?:/([a-z]+))?$")


class BadRequest(ReproError):
    """A request the HTTP front rejects before routing (a 4xx status)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` configures."""

    listen: str = "127.0.0.1:8321"
    state: str = ".repro-service"
    job_workers: int = 2
    max_running_per_tenant: int = 4
    max_queued_per_tenant: int | None = None
    announce: str | None = None


class CampaignServer:
    """One server instance: store + queue + worker pool + HTTP front."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = JobStore(config.state)
        self.queue = JobQueue(
            quota=QuotaPolicy(
                max_running=config.max_running_per_tenant,
                max_queued=config.max_queued_per_tenant,
            )
        )
        self.started_at = time.time()
        self.address: str | None = None
        self._server: asyncio.Server | None = None
        self._workers: list[asyncio.Task] = []
        self._procs: dict[str, asyncio.subprocess.Process] = {}
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "cache_hits": 0,
            "resumed": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        host, port = parse_hostport(self.config.listen, default_port=8321)
        self._server = await asyncio.start_server(self._handle, host, port)
        bound = self._server.sockets[0].getsockname()
        self.address = f"{bound[0]}:{bound[1]}"
        if self.config.announce:
            tmp = f"{self.config.announce}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.address + "\n")
            os.replace(tmp, self.config.announce)
        for job in self.store.recover():
            if job.resume:
                self._stats["resumed"] += 1
            self.queue.submit(job.id, tenant=job.spec.tenant, priority=job.spec.priority)
        tracer = get_observer().tracer
        if tracer.enabled:
            tracer.point("serve_start", address=self.address, recovered=len(self.queue))
        self._workers = [
            asyncio.create_task(self._worker_loop(i), name=f"repro-serve-worker-{i}")
            for i in range(max(1, self.config.job_workers))
        ]
        self._wake.set()

    def request_stop(self) -> None:
        self._stopping.set()
        self._wake.set()

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def shutdown(self) -> None:
        """Stop accepting, stop workers, kill running children.

        Job records of killed children stay ``running`` on disk — the
        next server over this state directory resumes them from their
        checkpoints, which is the restart contract the e2e suite pins.
        """
        self._stopping.set()
        self._wake.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for proc in list(self._procs.values()):
            _kill_tree(proc.pid, signal.SIGTERM)

    # -- job execution --------------------------------------------------------

    def _public_job(self, job: Job) -> dict[str, Any]:
        record = job.to_dict()
        record["links"] = {
            "self": f"/v1/jobs/{job.id}",
            "result": f"/v1/jobs/{job.id}/result",
            "meta": f"/v1/jobs/{job.id}/meta",
            "events": f"/v1/jobs/{job.id}/events",
            "report": f"/v1/jobs/{job.id}/report",
        }
        return record

    def _finish(self, job: Job, verdicts: bytes, meta: dict, cached: bool) -> None:
        job.verdict_sha256 = hashlib.sha256(verdicts).hexdigest()
        job.n_verdict_bytes = len(verdicts)
        job.cached = cached
        job.state = JobState.DONE
        job.finished_at = time.time()
        job.pid = None
        self.store.write_result(job, verdicts, meta)
        self.store.save(job)
        self._stats["completed"] += 1
        if cached:
            self._stats["cache_hits"] += 1
        tracer = get_observer().tracer
        if tracer.enabled:
            tracer.point(
                "job_done", job=job.id, cached=cached, sha=job.verdict_sha256
            )

    def _try_serve_cached(self, job: Job) -> bool:
        """Serve ``job`` from a completed twin or the result cache."""
        twin = self.store.latest_done_for_key(job.result_key)
        if twin is not None and twin.id != job.id:
            verdicts = self.store.read_verdicts(twin.id)
            meta = self.store.read_meta(twin.id)
            if verdicts is not None and meta is not None:
                self._finish(job, verdicts, dict(meta, served_from=twin.id), cached=True)
                return True
        cache = result_cache()
        if cache is not None:
            entry = cache.get(job.result_key)
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("verdicts"), bytes)
                and isinstance(entry.get("meta"), dict)
            ):
                self._finish(
                    job,
                    entry["verdicts"],
                    dict(entry["meta"], served_from="result-cache"),
                    cached=True,
                )
                return True
        return False

    def _child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # The child must import the same repro the server runs; derive
        # the path from the live package instead of trusting the
        # caller's PYTHONPATH.
        import repro

        pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        prior = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = pkg_parent + (os.pathsep + prior if prior else "")
        return env

    def _harvest(self, job: Job) -> tuple[bytes, dict[str, Any]]:
        """Read the finished job's checkpoint into (verdict bytes, meta)."""
        from repro.engine import load_sweep

        sweep = load_sweep(self.store.checkpoint_path(job.id))
        meta = dict(
            kind=job.spec.kind,
            spec=job.spec.to_dict(),
            model_key=sweep.model_key,
            n_candidates=sweep.n_candidates,
            n_simulated=sweep.n_simulated,
            telemetry=sweep.telemetry.to_dict() if sweep.telemetry else None,
        )
        return sweep.verdicts.tobytes(), meta

    async def _run_job(self, job: Job) -> None:
        if self._try_serve_cached(job):
            return
        job.state = JobState.RUNNING
        job.started_at = time.time()
        job.attempts += 1
        resume = job.resume and os.path.exists(self.store.checkpoint_path(job.id))
        argv = job.spec.to_argv(
            checkpoint=self.store.checkpoint_path(job.id),
            trace=self.store.trace_path(job.id),
            resume=resume,
        )
        self.store.save(job)
        tracer = get_observer().tracer
        if tracer.enabled:
            tracer.point("job_start", job=job.id, resumed=resume, attempts=job.attempts)
        log_path = os.path.join(self.store.root, "jobs", f"{job.id}.log")
        with open(log_path, "ab") as log:
            proc = await asyncio.create_subprocess_exec(
                sys.executable,
                "-m",
                "repro.cli",
                *argv,
                stdout=log,
                stderr=log,
                env=self._child_env(),
                start_new_session=True,
            )
            job.pid = proc.pid
            self.store.save(job)
            self._procs[job.id] = proc
            try:
                rc = await proc.wait()
            finally:
                self._procs.pop(job.id, None)
        if job.state == JobState.CANCELLED:
            return  # cancel() already settled the record
        if rc == 0:
            try:
                verdicts, meta = await asyncio.to_thread(self._harvest, job)
            except (ReproError, OSError, ValueError) as err:
                self._fail(job, f"harvest failed: {err}")
                return
            cache = result_cache()
            if cache is not None:
                cache.put(job.result_key, {"verdicts": verdicts, "meta": meta})
            self._finish(job, verdicts, meta, cached=False)
        else:
            self._fail(job, f"engine exited {rc}: {_tail(log_path)}")

    def _fail(self, job: Job, error: str) -> None:
        job.state = JobState.FAILED
        job.error = error
        job.finished_at = time.time()
        job.pid = None
        self.store.save(job)
        self._stats["failed"] += 1
        tracer = get_observer().tracer
        if tracer.enabled:
            tracer.point("job_failed", job=job.id, error=error[:200])

    async def _worker_loop(self, index: int) -> None:
        while not self._stopping.is_set():
            acquired = self.queue.acquire()
            if acquired is None:
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                except asyncio.TimeoutError:
                    pass
                self._wake.clear()
                continue
            tenant, _priority, job_id = acquired
            try:
                job = self.store.get(job_id)
                if job.state == JobState.QUEUED:
                    await self._run_job(job)
            finally:
                self.queue.release(tenant)
                self._wake.set()

    # -- job control ----------------------------------------------------------

    def submit(self, payload: Any) -> tuple[int, dict[str, Any]]:
        spec = spec_from_json(payload)  # SpecError -> 400 upstream
        job = self.store.new_job(spec)
        self._stats["submitted"] += 1
        tracer = get_observer().tracer
        if tracer.enabled:
            tracer.point(
                "job_submitted",
                job=job.id,
                job_kind=spec.kind,
                tenant=spec.tenant,
                priority=spec.priority,
            )
        if self._try_serve_cached(job):
            return 202, {"job": self._public_job(job), "cached": True}
        try:
            self.queue.submit(job.id, tenant=spec.tenant, priority=spec.priority)
        except QueueFull as err:
            job.state = JobState.CANCELLED
            job.error = str(err)
            job.finished_at = time.time()
            self.store.save(job)
            raise
        self.store.save(job)
        self._wake.set()
        return 202, {"job": self._public_job(job), "cached": False}

    def cancel(self, job_id: str) -> dict[str, Any]:
        job = self.store.get(job_id)
        if job.state in JobState.TERMINAL:
            raise ReproError(f"job {job_id} is already {job.state}")
        if job.state == JobState.QUEUED:
            self.queue.cancel(lambda item: item == job_id)
        else:  # running: kill the engine subprocess tree
            if job.pid:
                _kill_tree(job.pid, signal.SIGKILL)
        job.state = JobState.CANCELLED
        job.finished_at = time.time()
        self.store.save(job)
        self._stats["cancelled"] += 1
        self._wake.set()
        return self._public_job(job)

    def stats(self) -> dict[str, Any]:
        cache = result_cache()
        return {
            "api_version": API_VERSION,
            "address": self.address,
            "uptime_s": round(time.time() - self.started_at, 3),
            "queue": self.queue.snapshot(),
            "jobs": dict(self._stats),
            "running_procs": len(self._procs),
            "cache_dir": cache.root if cache is not None else None,
        }

    # -- HTTP front -----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader), _REQUEST_DEADLINE_S
                )
            except asyncio.TimeoutError:
                return  # a stalled client: drop the connection
            if request is None:
                return
            await self._dispatch(request, writer)
        except BadRequest as err:
            _write_response(writer, err.status, _json_body({"error": str(err)}))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except Exception as err:  # noqa: BLE001 - one bad request must not kill the server
            try:
                _write_response(
                    writer, 500, _json_body({"error": f"internal error: {err}"})
                )
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: "_Request", writer: asyncio.StreamWriter):
        method, path, query = request.method, request.path, request.query
        if path == "/healthz" and method == "GET":
            return _write_response(
                writer,
                200,
                _json_body(
                    {"ok": True, "api_version": API_VERSION, "address": self.address}
                ),
            )
        if path == "/v1/stats" and method == "GET":
            return _write_response(writer, 200, _json_body(self.stats()))
        if path == "/v1/jobs" and method == "POST":
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except ValueError:
                return _write_response(
                    writer, 400, _json_body({"error": "body is not valid JSON"})
                )
            try:
                status, body = self.submit(payload)
            except SpecError as err:
                return _write_response(writer, 400, _json_body({"error": str(err)}))
            except QueueFull as err:
                return _write_response(writer, 429, _json_body({"error": str(err)}))
            return _write_response(writer, status, _json_body(body))
        if path == "/v1/jobs" and method == "GET":
            state = query.get("state")
            tenant = query.get("tenant")
            jobs = [
                self._public_job(job)
                for job in self.store.jobs()
                if (state is None or job.state == state)
                and (tenant is None or job.spec.tenant == tenant)
            ]
            return _write_response(writer, 200, _json_body({"jobs": jobs}))
        m = _JOB_PATH.match(path)
        if m is None:
            return _write_response(writer, 404, _json_body({"error": f"no route {path}"}))
        job_id, action = m.group(1), m.group(2)
        try:
            job = self.store.get(job_id)
        except UnknownJob as err:
            return _write_response(writer, 404, _json_body({"error": str(err)}))
        if action is None and method == "GET":
            return _write_response(writer, 200, _json_body(self._public_job(job)))
        if action == "cancel" and method == "POST":
            try:
                return _write_response(writer, 200, _json_body(self.cancel(job_id)))
            except ReproError as err:
                return _write_response(writer, 409, _json_body({"error": str(err)}))
        if action == "result" and method == "GET":
            if job.state != JobState.DONE:
                return _write_response(
                    writer,
                    409,
                    _json_body({"error": f"job {job_id} is {job.state}, not done"}),
                )
            verdicts = self.store.read_verdicts(job_id)
            if verdicts is None:
                return _write_response(
                    writer, 500, _json_body({"error": "result bytes missing"})
                )
            return _write_response(
                writer,
                200,
                verdicts,
                content_type="application/octet-stream",
                extra_headers={
                    "X-Verdict-SHA256": job.verdict_sha256 or "",
                    "X-Job-Cached": "1" if job.cached else "0",
                },
            )
        if action == "meta" and method == "GET":
            meta = self.store.read_meta(job_id)
            if meta is None:
                return _write_response(
                    writer,
                    409,
                    _json_body({"error": f"job {job_id} has no meta (state {job.state})"}),
                )
            return _write_response(writer, 200, _json_body(meta))
        if action == "events" and method == "GET":
            return await self._serve_sse(writer, job)
        if action == "report" and method == "GET":
            return self._serve_report(writer, job, query.get("format", "json"))
        return _write_response(
            writer, 405, _json_body({"error": f"{method} {path} not supported"})
        )

    async def _serve_sse(self, writer: asyncio.StreamWriter, job: Job) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        def current_state() -> dict[str, Any]:
            return self._public_job(self.store.get(job.id))

        async for block in stream_job_events(
            self.store.trace_path(job.id), current_state
        ):
            writer.write(block)
            await writer.drain()

    def _serve_report(self, writer: asyncio.StreamWriter, job: Job, fmt: str) -> None:
        from repro.obs import load_trace, render_report
        from repro.obs.report import report_dict

        trace_path = self.store.trace_path(job.id)
        if not os.path.exists(trace_path):
            return _write_response(
                writer,
                404,
                _json_body(
                    {"error": f"job {job.id} has no trace (cached or not started)"}
                ),
            )
        trace = load_trace(trace_path)
        if fmt == "json":
            return _write_response(writer, 200, _json_body(report_dict(trace)))
        text = render_report(trace)
        if fmt == "text":
            return _write_response(
                writer, 200, text.encode("utf-8"), content_type="text/plain; charset=utf-8"
            )
        if fmt == "html":
            page = (
                "<!doctype html><html><head><meta charset='utf-8'>"
                f"<title>repro job {job.id}</title></head><body>"
                f"<h1>job {job.id} — {html.escape(job.spec.kind)} "
                f"{html.escape(str(job.spec.design or ''))}</h1>"
                f"<p>state: {html.escape(job.state)}, verdict sha256: "
                f"<code>{html.escape(job.verdict_sha256 or '-')}</code></p>"
                f"<pre>{html.escape(text)}</pre></body></html>"
            )
            return _write_response(
                writer, 200, page.encode("utf-8"), content_type="text/html; charset=utf-8"
            )
        return _write_response(
            writer, 400, _json_body({"error": f"unknown format {fmt!r}"})
        )


# -- HTTP plumbing -------------------------------------------------------------


@dataclass
class _Request:
    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""


_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    429: "Too Many Requests",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    # ``readline`` raises ValueError on a line longer than the reader's
    # limit (64 KiB); ``None`` marks such a line.
    try:
        line = await reader.readline()
    except ValueError:
        line = None
    if line == b"":
        return None
    if line is not None:
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            return None
    headers: dict[str, str] = {}
    n_lines = 0
    long_header = False
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            long_header = True
            continue
        if raw in (b"\r\n", b"\n", b""):
            break
        n_lines += 1
        if line is None or long_header or n_lines > _MAX_HEADERS:
            # Keep consuming to the blank line (still under the request
            # deadline): closing on unread input would reset the
            # connection and lose the 4xx before the client reads it.
            continue
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if line is None:
        raise BadRequest(414, "request line longer than 64 KiB")
    if long_header:
        raise BadRequest(431, "header line longer than 64 KiB")
    if n_lines > _MAX_HEADERS:
        raise BadRequest(
            431, f"too many header lines ({n_lines} > {_MAX_HEADERS})"
        )
    body = b""
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise BadRequest(400, f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise BadRequest(
            413, f"request body too large ({length} bytes > {_MAX_BODY_BYTES})"
        )
    if length:
        body = await reader.readexactly(length)
    parsed = urllib.parse.urlsplit(target)
    query = {k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()}
    return _Request(
        method=method, path=parsed.path, query=query, headers=headers, body=body
    )


def _json_body(obj: Any) -> bytes:
    return (json.dumps(obj, indent=1) + "\n").encode("utf-8")


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> None:
    head = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


def _kill_tree(pid: int, sig: int) -> None:
    """Signal a job's whole process group (children run in their own)."""
    try:
        os.killpg(pid, sig)
    except (OSError, ProcessLookupError):
        try:
            os.kill(pid, sig)
        except (OSError, ProcessLookupError):
            pass


def _tail(path: str, limit: int = 400) -> str:
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(max(0, size - limit))
            return fh.read().decode("utf-8", "replace").strip()
    except OSError:
        return ""


# -- entry point ---------------------------------------------------------------


async def _serve_async(config: ServiceConfig) -> int:
    server = CampaignServer(config)
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, server.request_stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await server.start()
    print(
        f"repro serve: listening on http://{server.address} "
        f"(state {config.state}, {config.job_workers} job worker(s), "
        f"cache {'on' if result_cache() else 'off'})",
        file=sys.stderr,
    )
    await server.wait_stopped()
    await server.shutdown()
    return 0


def run_server(config: ServiceConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    return asyncio.run(_serve_async(config))
