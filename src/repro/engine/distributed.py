"""Elastic multi-host executor backend over TCP with work stealing.

The paper's fault manager drives nine FPGAs from one controller; this
module gives the campaign engine the same shape: one parent process
(:class:`TcpBackend`) listening on a socket, any number of worker
processes (``repro worker --connect HOST:PORT``) that join, execute
shards, and leave — all behind the
:class:`~repro.engine.backends.ExecutorBackend` protocol, so every
recovery feature of :class:`~repro.engine.executor.ShardExecutor`
(retry, speculation, quarantine, suspect attribution) works unchanged.

Design points:

* **Work stealing, not static assignment.**  Submitted shards go into
  one shared deque; an idle worker pulls the next shard whenever it
  reports for work.  A round-robin *intended owner* is stamped on each
  shard at enqueue time purely for accounting: when a different worker
  ends up executing it (because the intended one was busy, slow, or
  gone), that completion counts as a *steal* — the signature of the
  pull model absorbing imbalance.  A worker that connects mid-campaign
  simply starts pulling (and therefore stealing) with no rebalancing
  step; verdict bytes cannot change because shard content never
  depends on which worker runs it.

* **Elastic join/leave.**  Workers say hello with the content
  addresses they already hold; the parent uploads only missing blobs
  (the pickled fault model crosses the wire once per worker per
  campaign, not once per shard).  A worker that disconnects — process
  death, network drop, heartbeat silence past ``worker_timeout_s`` —
  surfaces as :class:`~repro.engine.backends.WorkersLost` with its
  in-flight shard, which the executor requeues; verdicts are per
  candidate, so the re-execution is byte-identical.

* **Heartbeats are transport messages.**  Each worker sends ``hb``
  frames; the parent folds them into the same
  :class:`~repro.obs.heartbeat.ShardTracker` stream local runs use, so
  the straggler detector and speculative re-execution see no
  difference between a slow pool worker and a slow remote host.

* **Threads, not asyncio.**  The parent runs one accept thread plus
  one blocking-I/O thread per worker connection; worker counts are
  tens, not thousands, and blocking frames keep the protocol code
  synchronous and testable.  All shared state sits behind one lock;
  events cross to the executor through :meth:`TcpBackend.poll`.
"""

from __future__ import annotations

import collections
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.engine.backends import TaskDone, TaskFailed, WorkerJoined, WorkerLeft, WorkersLost
from repro.engine.cache import BlobMissing, blob_digest, install_blob, known_blobs
from repro.engine.transport import (
    FrameConn,
    FrameError,
    pack_error,
    parse_hostport,
    unpack_error,
)
from repro.errors import CampaignError

__all__ = ["TcpBackend", "run_worker"]


@dataclass
class _QueuedTask:
    """One shard waiting in the shared deque."""

    sid: int
    key: str
    frame: dict  # the ready-to-send task frame
    owner: str | None  # round-robin intended worker (steal accounting)


@dataclass
class _WorkerState:
    """Parent-side view of one connected worker."""

    name: str
    conn: FrameConn
    busy: _QueuedTask | None = None
    last_heard: float = field(default_factory=time.monotonic)
    sent_blobs: set[str] = field(default_factory=set)
    done: int = 0
    timed_out: bool = False


class TcpBackend:
    """The parent side of the TCP transport (an ``ExecutorBackend``)."""

    name = "tcp"

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        *,
        min_workers: int = 1,
        worker_timeout_s: float = 30.0,
        join_timeout_s: float = 60.0,
        announce: str | None = None,
    ):
        host, port = parse_hostport(listen)
        self.min_workers = max(1, int(min_workers))
        self.worker_timeout_s = float(worker_timeout_s)
        self.join_timeout_s = float(join_timeout_s)
        self.hb_interval_s = max(0.2, min(1.0, self.worker_timeout_s / 5.0))
        self._srv = socket.create_server((host, port))
        bound_host, bound_port = self._srv.getsockname()[:2]
        self.address = f"{bound_host}:{bound_port}"
        if announce:
            tmp = f"{announce}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.address + "\n")
            os.replace(tmp, announce)

        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._events: collections.deque = collections.deque()
        self._queue: collections.deque[_QueuedTask] = collections.deque()
        self._workers: dict[str, _WorkerState] = {}
        self._blobs: dict[str, bytes] = {}
        self._abandoned: set[int] = set()
        self._late: dict[int, TaskDone] = {}
        self._closing = False
        self._gated = False  # min_workers barrier passed
        self._rr = 0  # round-robin cursor for intended-owner stamping
        self._threads: list[threading.Thread] = []
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-tcp-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)

    # -- server threads -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._srv.accept()
            except OSError:
                return  # listener closed by close()
            handler = threading.Thread(
                target=self._serve_worker, args=(FrameConn(sock),),
                name="repro-tcp-worker", daemon=True,
            )
            handler.start()
            self._threads.append(handler)

    def _emit(self, *events: Any) -> None:
        with self._lock:
            self._events.extend(events)
        self._wake.set()

    def _serve_worker(self, conn: FrameConn) -> None:
        """One connection's lifetime: hello → pull/execute loop → loss."""
        worker: _WorkerState | None = None
        try:
            hello = conn.recv(timeout=10.0)
            if hello is None or hello.get("t") != "hello":
                conn.close()
                return
            base = str(hello.get("worker", "worker"))
            with self._lock:
                name = base
                n = 1
                while name in self._workers:  # reconnect before cleanup, or a twin
                    n += 1
                    name = f"{base}#{n}"
                worker = _WorkerState(name=name, conn=conn)
                worker.sent_blobs = set(hello.get("blobs", ()))
                self._workers[name] = worker
                missing = [d for d in self._blobs if d not in worker.sent_blobs]
            conn.send({"t": "welcome", "worker": name, "hb_s": self.hb_interval_s})
            for digest in missing:
                conn.send({"t": "blob", "digest": digest, "data": self._blobs[digest]})
                worker.sent_blobs.add(digest)
            self._emit(WorkerJoined(worker=name))
            while not self._closing:
                task: _QueuedTask | None = None
                with self._lock:
                    if worker.busy is None and self._queue:
                        task = self._queue.popleft()
                        worker.busy = task
                if task is not None:
                    conn.send(task.frame)
                try:
                    msg = conn.recv(timeout=0.2)
                except TimeoutError:
                    continue
                if msg is None:
                    return  # clean disconnect; finally-block does the loss path
                worker.last_heard = time.monotonic()
                kind = msg.get("t")
                if kind == "result":
                    self._finish(worker, msg)
                elif kind == "need_blob":
                    digest = msg.get("digest", "")
                    data = self._blobs.get(digest)
                    if data is not None:
                        conn.send({"t": "blob", "digest": digest, "data": data})
                # "hb" needs nothing beyond the last_heard update above
        except (FrameError, OSError, CampaignError):
            pass  # connection-level failure: fall through to the loss path
        finally:
            conn.close()
            if worker is not None:
                self._lose_worker(worker)

    def _finish(self, worker: _WorkerState, msg: dict) -> None:
        task = worker.busy
        sid = int(msg.get("sid", -1))
        if task is None or task.sid != sid:
            return  # stale result (e.g. from before an abandon); drop
        worker.busy = None
        worker.done += 1
        stolen = task.owner is not None and task.owner != worker.name
        if msg.get("ok"):
            ev: Any = TaskDone(
                sid=sid, result=msg.get("value"), worker=worker.name, stolen=stolen
            )
        else:
            ev = TaskFailed(sid=sid, error=unpack_error(msg.get("error") or {}))
        self._emit(ev)

    def _lose_worker(self, worker: _WorkerState) -> None:
        with self._lock:
            registered = self._workers.get(worker.name) is worker
            if registered:
                del self._workers[worker.name]
            task = worker.busy
            worker.busy = None
        if not registered:
            return
        reason = "heartbeat timeout" if worker.timed_out else "disconnect"
        events: list[Any] = []
        if not self._closing:
            events.append(WorkerLeft(worker=worker.name, reason=reason))
            if task is not None and task.sid not in self._abandoned:
                events.append(
                    WorkersLost(
                        sids=(task.sid,),
                        error=f"worker {worker.name} lost mid-shard ({reason})",
                        worker=worker.name,
                    )
                )
        if events:
            self._emit(*events)

    def _check_liveness(self) -> None:
        now = time.monotonic()
        with self._lock:
            stale = [
                w for w in self._workers.values()
                if now - w.last_heard > self.worker_timeout_s
            ]
        for worker in stale:
            worker.timed_out = True
            # Closing the socket bounces the handler thread out of its
            # recv loop; the handler runs the loss path exactly once.
            worker.conn.close()

    # -- ExecutorBackend protocol ---------------------------------------------

    def blob_ref(self, blob: bytes) -> str:
        digest = install_blob(blob)  # parent store too: the collapse
        # grouping path resolves the model context in-process
        with self._lock:
            self._blobs[digest] = blob
            workers = list(self._workers.values())
        for worker in workers:
            if digest not in worker.sent_blobs:
                try:
                    worker.conn.send({"t": "blob", "digest": digest, "data": blob})
                    worker.sent_blobs.add(digest)
                except (FrameError, OSError):
                    pass  # dying connection; the loss path handles it
        return digest

    def _await_workers(self) -> None:
        deadline = time.monotonic() + self.join_timeout_s
        while True:
            with self._lock:
                joined = len(self._workers)
            if joined >= self.min_workers:
                self._gated = True
                return
            if time.monotonic() > deadline:
                raise CampaignError(
                    f"only {joined}/{self.min_workers} worker(s) joined "
                    f"{self.address} within {self.join_timeout_s:.0f}s — start "
                    f"workers with `repro worker --connect {self.address}`"
                )
            self._wake.wait(0.2)
            self._wake.clear()

    def submit(self, sid: int, spec, launch: int, chaos) -> None:
        if not self._gated:
            self._await_workers()
        frame = {
            "t": "task",
            "sid": sid,
            "key": spec.key,
            "launch": launch,
            "fn": spec.fn,
            "args": spec.args,
            "chaos": chaos,
        }
        with self._lock:
            names = sorted(self._workers)
            owner = names[self._rr % len(names)] if names else None
            self._rr += 1
            self._queue.append(_QueuedTask(sid=sid, key=spec.key, frame=frame, owner=owner))
        self._wake.set()

    def poll(self, timeout: float) -> list:
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            self._check_liveness()
            with self._lock:
                if self._events:
                    events = list(self._events)
                    self._events.clear()
                    return events
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
            self._wake.wait(min(remaining, 0.2))
            self._wake.clear()

    def abandon(self, sids: Iterable[int]) -> None:
        wanted = set(sids)
        if not wanted:
            return
        with self._lock:
            self._abandoned.update(wanted)
            kept = [t for t in self._queue if t.sid not in wanted]
            if len(kept) != len(self._queue):
                self._queue.clear()
                self._queue.extend(kept)

    def census(self) -> frozenset:
        with self._lock:
            return frozenset(self._workers)

    def census_detail(self) -> dict[str, dict]:
        now = time.monotonic()
        with self._lock:
            return {
                name: {
                    "busy": w.busy.key if w.busy is not None else None,
                    "done": w.done,
                    "heard_s_ago": round(now - w.last_heard, 3),
                }
                for name, w in sorted(self._workers.items())
            }

    def close(self) -> None:
        self._closing = True
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.conn.send({"t": "bye"})
            except (FrameError, OSError):
                pass
        try:
            self._srv.close()
        except OSError:
            pass
        for worker in workers:
            worker.conn.close()
        for thread in self._threads:
            thread.join(timeout=2.0)


# -- the worker process --------------------------------------------------------


class _Bye(Exception):
    """Server ended the campaign."""


class _Reconnect(Exception):
    """This connection is done; reconnect (chaos drop, stale socket)."""


class _WorkerLoop:
    """One worker process's state across connections."""

    def __init__(self, name: str, hb_interval_s: float):
        self.name = name
        self.hb_interval_s = hb_interval_s
        self.busy_key: str | None = None
        self.partition_until = 0.0  # chaos partition: heartbeats withheld until then

    def _heartbeats(self, conn: FrameConn, stop: threading.Event) -> None:
        while not stop.is_set():
            if time.monotonic() >= self.partition_until:
                try:
                    conn.send({"t": "hb", "worker": self.name, "busy": self.busy_key})
                except (FrameError, OSError):
                    return  # main loop will notice the dead socket
            stop.wait(self.hb_interval_s)

    def _run_fn(self, conn: FrameConn, fn, args):
        """Run the task, fetching at most one missing blob on demand."""
        try:
            return fn(*args)
        except BlobMissing as miss:
            conn.send({"t": "need_blob", "digest": miss.digest})
            deadline = time.monotonic() + 30.0
            while True:
                if time.monotonic() > deadline:
                    raise
                try:
                    reply = conn.recv(timeout=5.0)
                except TimeoutError:
                    continue
                if reply is None:
                    raise _Reconnect from None
                kind = reply.get("t")
                if kind == "blob":
                    install_blob(reply["data"])
                    if blob_digest(reply["data"]) == miss.digest:
                        break
                elif kind == "bye":
                    raise _Bye from None
            return fn(*args)

    def _execute(self, conn: FrameConn, msg: dict) -> None:
        sid, key, launch = msg["sid"], msg["key"], msg["launch"]
        chaos = msg.get("chaos")
        send_delay = 0.0
        if chaos is not None:
            action = chaos.decide(key, launch)
            if action == "drop":
                # Abrupt connection loss without answering: the parent
                # requeues the shard on another (or the returning) worker.
                conn.close()
                raise _Reconnect
            if action == "partition":
                # Go silent — no heartbeats, result withheld — for the
                # window, then resume; the parent sees a straggler (or,
                # past worker_timeout_s, a lost worker).
                self.partition_until = time.monotonic() + chaos.partition_s
            elif action == "slowlink":
                send_delay = chaos.slowlink_s
            elif action is not None:
                chaos.apply(key, launch)  # crash / hang / delay, in-process
        self.busy_key = key
        try:
            try:
                value = self._run_fn(conn, msg["fn"], msg["args"])
            except (_Bye, _Reconnect):
                raise
            except BaseException as err:  # noqa: BLE001 - shipped to the parent
                reply = {"t": "result", "sid": sid, "ok": False, "error": pack_error(err)}
            else:
                reply = {"t": "result", "sid": sid, "ok": True, "value": value}
            wait_s = self.partition_until - time.monotonic()
            if wait_s > 0:
                time.sleep(wait_s)
            if send_delay:
                time.sleep(send_delay)
            conn.send(reply)
        finally:
            self.busy_key = None

    def serve(self, conn: FrameConn) -> bool:
        """One connection: returns True on ``bye``, False to reconnect."""
        conn.send({"t": "hello", "worker": self.name, "blobs": list(known_blobs())})
        welcome = conn.recv(timeout=10.0)
        if welcome is None or welcome.get("t") != "welcome":
            return False
        self.hb_interval_s = float(welcome.get("hb_s", self.hb_interval_s))
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeats, args=(conn, stop),
            name="repro-worker-hb", daemon=True,
        )
        beat.start()
        try:
            while True:
                try:
                    msg = conn.recv(timeout=1.0)
                except TimeoutError:
                    continue
                if msg is None:
                    return False
                kind = msg.get("t")
                if kind == "task":
                    self._execute(conn, msg)
                elif kind == "blob":
                    install_blob(msg["data"])
                elif kind == "bye":
                    return True
        except _Bye:
            return True
        except _Reconnect:
            return False
        finally:
            stop.set()
            beat.join(timeout=2.0)


def _resolve_connect(spec: str) -> tuple[str, int] | None:
    """``HOST:PORT`` or ``@FILE`` (an announce file; None until readable)."""
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                content = fh.read().strip()
        except OSError:
            return None
        if not content:
            return None
        return parse_hostport(content)
    return parse_hostport(spec)


def _never_joined_message(connect: str, addr, waited: float) -> str:
    """Why a worker's first join failed — name the thing still missing."""
    if connect.startswith("@"):
        path = connect[1:]
        if addr is None:
            return (
                f"no coordinator announced in {path!r} within {waited:g}s — "
                f"check that a campaign is running with `--executor tcp "
                f"--announce {path}` (or pass --join-timeout to wait longer)"
            )
        return (
            f"coordinator {addr[0]}:{addr[1]} (announced in {path!r}) refused "
            f"connections for {waited:g}s — it may have exited; remove the "
            f"stale announce file or restart the campaign"
        )
    return (
        f"no coordinator accepted at {connect!r} within {waited:g}s — "
        f"check the address and that a campaign is running with "
        f"`--executor tcp --listen {connect}`"
    )


def run_worker(
    connect: str,
    *,
    persist: bool = False,
    hb_interval_s: float = 1.0,
    connect_timeout_s: float = 60.0,
    join_timeout_s: float | None = None,
    name: str | None = None,
) -> int:
    """A campaign worker process: join, pull shards, execute, repeat.

    ``connect`` is ``HOST:PORT`` or ``@FILE`` (poll an announce file
    written by ``--listen ... --announce FILE`` — re-read on every
    reconnect, so a persistent worker follows a parent across
    campaigns and ephemeral ports).  Returns 0 when the parent says
    ``bye`` (or, with ``persist``, keeps rejoining until no parent
    appears within ``connect_timeout_s``).

    ``join_timeout_s`` bounds the *first* join: if the worker has never
    connected within that window it raises :class:`CampaignError`
    naming the address (or the announce file still being polled) so a
    typo'd ``@PATH`` fails loudly instead of timing out in silence.
    Without it, ``connect_timeout_s`` bounds the first join the same
    way: expiry raises that :class:`CampaignError` too (the CLI prints
    it as ``repro: error: ...`` and exits 2).
    """
    loop = _WorkerLoop(
        name or f"{socket.gethostname()}-{os.getpid()}", hb_interval_s
    )
    connected_once = False
    deadline = time.monotonic() + connect_timeout_s
    join_deadline = (
        None if join_timeout_s is None else time.monotonic() + join_timeout_s
    )
    while True:
        addr = _resolve_connect(connect)
        sock = None
        if addr is not None:
            try:
                sock = socket.create_connection(addr, timeout=5.0)
            except OSError:
                sock = None
        if sock is None:
            now = time.monotonic()
            if not connected_once:
                expired = (
                    join_deadline is not None and now > join_deadline
                ) or now > deadline
                if expired:
                    waited = (
                        join_timeout_s if join_deadline is not None else connect_timeout_s
                    )
                    raise CampaignError(_never_joined_message(connect, addr, waited))
            elif now > deadline:
                return 0
            time.sleep(0.2)
            continue
        connected_once = True
        conn = FrameConn(sock)
        try:
            done = loop.serve(conn)
        except (FrameError, OSError, TimeoutError):
            done = False
        finally:
            conn.close()
        if done and not persist:
            return 0
        # Dropped mid-campaign, or persistent across campaigns: rejoin.
        deadline = time.monotonic() + connect_timeout_s
        time.sleep(0.1)
