"""Pluggable executor backends behind :class:`~repro.engine.executor.ShardExecutor`.

The executor's recovery machinery (retry/backoff, speculation, poison
quarantine, launch-recency suspect attribution) is transport-agnostic:
it reasons about *submission ids* and *events*, never about futures or
sockets.  A backend owns the transport:

* :class:`LocalPoolBackend` — the historical in-host
  ``ProcessPoolExecutor`` (or a caller-supplied external pool), with
  the model blob hoisted out of per-shard args into a per-worker
  initializer cache so pool rebuilds re-prime it exactly once;
* :class:`~repro.engine.distributed.TcpBackend` — multi-host workers
  over a length-prefixed pickle frame protocol with work-stealing
  assignment and elastic join/leave.

The contract: :meth:`~ExecutorBackend.submit` enqueues one launch under
a caller-chosen submission id (sid); :meth:`~ExecutorBackend.poll`
blocks up to a timeout and returns the events that happened — task
completions and failures, worker-set changes, and worker losses that
invalidated in-flight sids.  Losing a worker is an *event*, never an
exception: the executor decides whether the casualties retry,
speculate or quarantine, identically on every backend.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

from repro.engine.cache import install_blob, install_blobs
from repro.errors import CampaignError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.chaos import ChaosPolicy
    from repro.engine.executor import ExecutorPolicy, TaskSpec

__all__ = [
    "ExecutorBackend",
    "TaskDone",
    "TaskFailed",
    "WorkersLost",
    "WorkerJoined",
    "WorkerLeft",
    "LocalPoolBackend",
    "make_backend",
]


# -- backend events ------------------------------------------------------------


@dataclass(frozen=True)
class TaskDone:
    """One submission finished with a value."""

    sid: int
    result: Any
    worker: str | None = None  # executing worker's name (transports that know)
    stolen: bool = False  # executed by a different worker than first intended


@dataclass(frozen=True)
class TaskFailed:
    """One submission raised in the worker (the worker survived)."""

    sid: int
    error: BaseException


@dataclass(frozen=True)
class WorkersLost:
    """Worker death invalidated in-flight submissions.

    ``sids`` are the casualties (requeue/retry is the executor's call).
    ``rebuilt`` means the backend already replaced the capacity (local
    pool rebuild); ``fatal`` means it cannot (external pool) and the
    campaign must abort.  ``culprits`` are the sids the dead workers
    were running, when the backend knows them.
    """

    sids: tuple[int, ...]
    error: str
    worker: str | None = None
    rebuilt: bool = False
    fatal: bool = False
    culprits: tuple[int, ...] = ()


@dataclass(frozen=True)
class WorkerJoined:
    worker: str


@dataclass(frozen=True)
class WorkerLeft:
    worker: str
    reason: str = "disconnect"


# -- the protocol --------------------------------------------------------------


@runtime_checkable
class ExecutorBackend(Protocol):
    """What :class:`ShardExecutor` needs from a transport."""

    name: str

    def blob_ref(self, blob: bytes) -> str | bytes:
        """Register a shared blob; return the ref task args should carry."""
        ...

    def submit(self, sid: int, spec: "TaskSpec", launch: int, chaos: "ChaosPolicy | None") -> None:
        """Enqueue one launch of ``spec`` under submission id ``sid``."""
        ...

    def poll(self, timeout: float) -> list[Any]:
        """Block up to ``timeout`` seconds; return the events that occurred."""
        ...

    def abandon(self, sids: Iterable[int]) -> None:
        """Mark sids whose results no longer matter (loser duplicates,
        quarantined hangs): drop them from queues, and never report
        their loss as a worker casualty."""
        ...

    def census(self) -> frozenset:
        """The live worker set (pids locally, worker names over TCP)."""
        ...

    def census_detail(self) -> dict[str, dict]:
        """Per-worker liveness detail for heartbeat events."""
        ...

    def close(self) -> None:
        """Tear the transport down (hard if abandoned work is wedged)."""
        ...


# -- local process pool --------------------------------------------------------


def _run_task(chaos: "ChaosPolicy", key: str, launch: int, fn, args):
    """Worker entry wrapper: apply the chaos schedule, then do the work."""
    chaos.apply(key, launch)
    return fn(*args)


#: this worker's ``(pid, sid + 1)`` pair in its pool's shared slot array
_slots = None
_slot = -1


def _init_worker(blobs: dict[str, bytes], slots) -> None:
    """Pool initializer: prime the blob store and claim a slot pair."""
    global _slots, _slot
    install_blobs(blobs)
    with slots.get_lock():
        for i in range(0, len(slots), 2):
            if slots[i] == 0:
                slots[i] = os.getpid()
                _slots, _slot = slots.get_obj(), i
                break


def _run_tracked(sid: int, chaos, key: str, launch: int, fn, args):
    """Worker entry: publish ``sid`` in this worker's slot while it runs,
    so the parent can tell which launch a dead worker was running.
    External pools never ran :func:`_init_worker`, so nothing is
    published there."""
    if _slot >= 0:
        _slots[_slot + 1] = sid + 1
    try:
        if chaos is not None:
            chaos.apply(key, launch)
        return fn(*args)
    finally:
        if _slot >= 0:
            _slots[_slot + 1] = 0


def _worker_pids(pool: Executor | None) -> frozenset[int]:
    procs = getattr(pool, "_processes", None)
    return frozenset(procs.keys()) if procs else frozenset()


def _wedged(pool: Executor) -> bool:
    """True when an owned pool's manager thread can no longer clean up.

    On CPython 3.11 the manager of a broken ``ProcessPoolExecutor``
    fails each pending future before it terminates the workers, and a
    future cancelled by :meth:`LocalPoolBackend.abandon` makes that loop
    raise ``InvalidStateError``: the thread dies, the surviving workers
    block on the call queue for good, and the interpreter's exit hook
    then waits on them forever.  ``_broken`` is set before that loop.
    """
    thread = getattr(pool, "_executor_manager_thread", None)
    return bool(getattr(pool, "_broken", False)) or (
        thread is not None and not thread.is_alive()
    )


def _culprits(procs: dict, slots) -> tuple[int, ...]:
    """The sids that workers of a torn-down pool died running.

    A worker the pool (or :func:`_hard_shutdown`) stopped exits on
    SIGTERM; one that exited any other way took itself down, and its
    slot still holds the launch it was running.
    """
    running = {
        slots[i]: slots[i + 1] - 1
        for i in range(0, len(slots), 2)
        if slots[i] and slots[i + 1]
    }
    return tuple(
        running[pid]
        for pid, proc in sorted(procs.items())
        if pid in running and proc.exitcode not in (None, -signal.SIGTERM)
    )


def _hard_shutdown(pool: Executor) -> None:
    """Tear a pool down without waiting on hung or abandoned workers."""
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    for proc in procs:
        try:
            proc.join(5)
        except (OSError, ValueError, AssertionError):
            pass


@dataclass
class _PendingRebuild:
    events: list = field(default_factory=list)


class LocalPoolBackend:
    """The in-host backend: an owned ``ProcessPoolExecutor`` or an
    external caller-supplied pool.

    Owned pools are built lazily (first submit) with an initializer
    that installs every registered blob into the worker-side
    content-addressed store — so the model blob crosses the process
    boundary once per worker, not once per shard, and a rebuild after
    ``BrokenProcessPool`` re-primes the fresh workers exactly once.
    External pools cannot run initializers, so :meth:`blob_ref` falls
    back to handing the raw bytes to every task (the historical
    semantics synchronous test executors rely on).
    """

    name = "local"

    def __init__(self, jobs: int, pool: Executor | None = None):
        self.jobs = int(jobs)
        self._external = pool is not None
        self._pool: Executor | None = pool
        self._slots = None  # owned pool's (pid, sid + 1) pairs, see _init_worker
        self._blobs: dict[str, bytes] = {}
        self._futures: dict[Future, int] = {}  # in-flight future -> sid
        self._abandoned: dict[Future, int] = {}  # abandoned but maybe completing
        self._pending: list = []  # events queued by submit-time breaks

    # -- pool management --

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._slots = multiprocessing.Array("q", 2 * self.jobs)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(dict(self._blobs), self._slots),
            )
        return self._pool

    def _break(self, err: BaseException, extra_sids: tuple[int, ...] = ()) -> None:
        """Handle ``BrokenProcessPool``: rebuild (own) or declare fatal.

        ``extra_sids`` are casualties already popped from the in-flight
        map by the caller (futures that surfaced the break themselves).
        """
        sids = extra_sids + tuple(self._futures.values())
        self._futures.clear()
        # Abandoned futures died with the pool: no late result will ever
        # arrive, and their tasks are already resolved or quarantined.
        self._abandoned.clear()
        if self._external:
            self._pending.append(WorkersLost(sids=sids, error=repr(err), fatal=True))
            return
        dead, self._pool = self._pool, None
        culprits: tuple[int, ...] = ()
        if dead is not None:
            procs = dict(getattr(dead, "_processes", None) or {})
            _hard_shutdown(dead)  # its manager may have died mid-cleanup
            culprits = _culprits(procs, self._slots.get_obj())
        self._pending.append(
            WorkersLost(sids=sids, error=repr(err), rebuilt=True, culprits=culprits)
        )
        self._ensure_pool()

    # -- protocol --

    def blob_ref(self, blob: bytes) -> str | bytes:
        if self._external:
            return blob
        digest = install_blob(blob)  # parent store: fork children inherit CoW
        self._blobs[digest] = blob
        return digest

    def submit(self, sid: int, spec, launch: int, chaos) -> None:
        pool = self._ensure_pool()

        def do() -> Future:
            return pool.submit(_run_tracked, sid, chaos, spec.key, launch, spec.fn, spec.args)

        try:
            fut = do()
        except BrokenProcessPool as err:
            # The pool died before accepting this launch (e.g. an
            # abandoned speculative worker crashed between drain
            # rounds).  Rebuild, charge the in-flight casualties — this
            # launch was never accepted, so it is not one — and submit
            # to the fresh pool.
            self._break(err)
            if self._external:
                return  # fatal WorkersLost already queued; poll reports it
            pool = self._ensure_pool()
            fut = do()
        self._futures[fut] = sid

    def poll(self, timeout: float) -> list:
        events, self._pending = self._pending, []
        waitset = set(self._futures) | set(self._abandoned)
        if not waitset:
            if not events and timeout > 0:
                time.sleep(min(timeout, 0.1) or 0.01)
            return events
        done, _ = wait(waitset, timeout=0.0 if events else timeout, return_when=FIRST_COMPLETED)
        broken: BaseException | None = None
        broken_sids: list[int] = []
        # Completions that arrive together are reported in submission
        # order, so a synchronous executor replays one fixed schedule.
        for fut in sorted(done, key=lambda f: self._futures.get(f, self._abandoned.get(f, -1))):
            abandoned = False
            sid = self._futures.pop(fut, None)
            if sid is None:
                sid = self._abandoned.pop(fut, None)
                abandoned = True
                if sid is None:
                    continue
            try:
                result = fut.result()
            except BrokenProcessPool as err:
                broken = err
                if not abandoned:
                    broken_sids.append(sid)
                continue
            except CampaignError:
                raise
            except BaseException as err:  # noqa: BLE001 - worker failure, event
                events.append(TaskFailed(sid, err))
                continue
            events.append(TaskDone(sid, result))
        if broken is not None:
            self._break(broken, extra_sids=tuple(broken_sids))
            events.extend(self._pending)
            self._pending = []
        return events

    def abandon(self, sids: Iterable[int]) -> None:
        wanted = set(sids)
        for fut, sid in list(self._futures.items()):
            if sid in wanted:
                del self._futures[fut]
                if not fut.cancel():
                    self._abandoned[fut] = sid

    def census(self) -> frozenset:
        return _worker_pids(self._pool)

    def census_detail(self) -> dict[str, dict]:
        return {str(pid): {} for pid in sorted(self.census())}

    def close(self) -> None:
        if self._external or self._pool is None:
            return
        if _wedged(self._pool) or any(not fut.done() for fut in self._abandoned):
            _hard_shutdown(self._pool)
        else:
            self._pool.shutdown(wait=True, cancel_futures=True)


# -- registry ------------------------------------------------------------------


def make_backend(
    spec: "ExecutorBackend | str | None",
    policy: "ExecutorPolicy",
    jobs: int,
    pool: Executor | None = None,
) -> "ExecutorBackend":
    """Resolve a backend choice: an instance is used as-is, a name is
    constructed from ``policy``, ``None`` falls back to
    ``policy.transport`` (default ``"local"``)."""
    if spec is None:
        spec = policy.transport
    if not isinstance(spec, str):
        return spec
    if spec == "local":
        return LocalPoolBackend(jobs, pool=pool)
    if spec == "tcp":
        from repro.engine.distributed import TcpBackend

        return TcpBackend(
            policy.listen or "127.0.0.1:0",
            min_workers=policy.min_workers or 1,
            worker_timeout_s=policy.worker_timeout_s,
            join_timeout_s=policy.join_timeout_s,
            announce=policy.announce,
        )
    raise CampaignError(f"unknown executor backend {spec!r} (known: local, tcp)")
