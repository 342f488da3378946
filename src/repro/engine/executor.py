"""Fault-tolerant shard execution: the pluggable engine behind ``run_sharded``.

The sharded drivers used to drain a bare ``ProcessPoolExecutor`` with
``f.result()``: one OOM-killed or segfaulted worker raised
``BrokenProcessPool`` in the parent and discarded everything since the
last checkpoint, and the straggler detector only ever printed warnings.
:class:`ShardExecutor` owns that failure surface for both sharded
phases:

* **Per-shard retry** with exponential backoff and decorrelated jitter
  for per-task worker exceptions.
* **Worker-loss recovery**: a dead local pool is rebuilt and a
  disconnected TCP worker's in-flight shards are requeued — results
  already yielded (and therefore checkpointed by the driver) are never
  lost.
* **Speculative re-execution** of stalled shards: the
  :class:`~repro.obs.heartbeat.ShardTracker` straggler signal (factor ×
  median completed duration) or an absolute ``speculate_after_s``
  ceiling launches one duplicate of a stalled task; first result wins.
  Shards are deterministic, so the duplicate's bytes are identical and
  speculation can never change a verdict.
* **Poison-shard quarantine**: a task that keeps failing (or keeps
  hanging past ``hang_timeout_s`` after speculation already tried) is
  quarantined instead of wedging the campaign; the sweep completes,
  quarantined work is reported distinctly through telemetry and trace
  points, and the driver raises at the very end unless
  ``allow_partial``.  A quarantined task that completes anyway before
  teardown is drained and logged (:attr:`ShardExecutor.late_results`),
  never silently dropped.

All of that recovery logic is written against the
:class:`~repro.engine.backends.ExecutorBackend` protocol — submission
ids in, completion/failure/worker-loss *events* out — so it behaves
identically whether the transport is the in-host process pool
(:class:`~repro.engine.backends.LocalPoolBackend`) or elastic TCP
workers (:class:`~repro.engine.distributed.TcpBackend`).

Every recovery action is recorded in :class:`CampaignTelemetry`
(``shard_retries``, ``speculative_launches``, ``speculative_wins``,
``pool_rebuilds``, ``shards_quarantined``, plus the distributed
counters ``workers_joined``/``workers_left``/``dist_steals``/
``dist_requeues``/``late_results``) and, when observability is on, as
``retry`` / ``speculate`` / ``pool_rebuild`` / ``quarantine`` /
``worker_join`` / ``worker_leave`` / ``requeue`` / ``late_result``
trace points that ``repro report`` renders as a recovery timeline.

The determinism contract is untouched: recovery only re-runs pure
worker functions, so any schedule of crashes, hangs, disconnects and
retries that the executor survives yields verdict bytes identical to
an undisturbed run (pinned by ``tests/seu/test_recovery.py`` and
``tests/engine/test_distributed.py``).  Chaos injection
(:mod:`repro.engine.chaos`) makes that claim testable on demand.

The active :class:`ExecutorPolicy` is ambient, mirroring
:mod:`repro.obs`: the CLI (or a test) activates retry/chaos/transport
knobs for a lexical scope with ``with executor_policy(policy): ...``
and the drivers pick it up via :func:`get_executor_policy` — no
adapter signature needs to thread it through.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
from concurrent.futures import Executor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Iterator

from repro.engine.cache import fast_forward_scope, result_cache, result_cache_scope
from repro.engine.backends import (
    ExecutorBackend,
    TaskDone,
    TaskFailed,
    WorkerJoined,
    WorkerLeft,
    WorkersLost,
    _hard_shutdown,  # noqa: F401 - re-exported for compatibility
    _run_task,  # noqa: F401 - re-exported for compatibility (pickled by tests)
    _worker_pids,  # noqa: F401 - re-exported for compatibility
    make_backend,
)
from repro.engine.chaos import ChaosPolicy
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError
from repro.obs import get_observer
from repro.obs.heartbeat import ShardTracker

__all__ = [
    "ExecutorPolicy",
    "ShardExecutor",
    "TaskSpec",
    "executor_policy",
    "get_executor_policy",
    "DEFAULT_POLICY",
]


@dataclass(frozen=True)
class ExecutorPolicy:
    """Failure-handling and transport knobs for :class:`ShardExecutor`.

    ``max_attempts`` bounds per-task worker *exceptions*.  Worker-loss
    casualties (one worker death fails every in-flight shard on it,
    innocents included) are attributed: the launch the dead worker was
    running when the backend knows it (the local pool does), else the
    most recently launched casualty — a task that crashes its worker
    dies within milliseconds of launching — is charged as the *suspect*
    and quarantined after ``2 × max_attempts`` implications, while
    bystanders only count losses against a ``4 × max_attempts``
    backstop — a poison shard cannot drag a long-running healthy shard
    into quarantine with it, but an ambiguous break storm still
    terminates.  ``on_workers`` is a parent-side test hook called with
    ``(phase, live worker census)`` whenever the set changes (used by
    the SIGKILL recovery tests to aim at a real worker during a chosen
    phase).

    The transport block selects and configures the backend:
    ``transport`` names it (``"local"``/``"tcp"``); ``listen`` is the
    TCP bind address (``HOST:PORT``, port 0 for ephemeral);
    ``announce`` a file the bound address is written to (workers
    connect with ``@FILE``); ``min_workers`` how many workers must have
    joined before the first shard is dispatched (late joiners beyond
    that steal work whenever they arrive); ``worker_timeout_s`` the
    heartbeat silence after which a worker is declared lost and its
    in-flight shards requeued; ``join_timeout_s`` how long to wait for
    ``min_workers``.

    The caching block is tri-state: ``fast_forward`` ``None`` inherits
    the ambient ``REPRO_FAST_FORWARD`` toggle (golden-prefix snapshot
    starts, default on), ``True``/``False`` force it for the scope;
    ``result_cache`` ``None`` inherits ``REPRO_RESULT_CACHE``, a
    directory enables the content-addressed result store there, and the
    string ``"off"`` disables an inherited one.  :func:`executor_policy`
    exports both as environment variables so every worker the scope
    spawns — fork or spawn pools and ``repro worker`` children alike —
    sees the same configuration.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_seed: int | None = None
    speculate: bool = True
    speculate_after_s: float | None = None  # absolute stall ceiling (None: tracker only)
    straggler_factor: float = 4.0
    min_samples: int = 3
    heartbeat_interval_s: float = 2.0
    hang_timeout_s: float | None = None  # quarantine ceiling for hung tasks (None: never)
    allow_partial: bool = False
    chaos: ChaosPolicy | None = None
    on_workers: Callable[[str, frozenset], None] | None = None
    transport: str = "local"
    listen: str | None = None
    announce: str | None = None
    min_workers: int = 0
    worker_timeout_s: float = 30.0
    join_timeout_s: float = 60.0
    fast_forward: bool | None = None
    result_cache: str | None = None


DEFAULT_POLICY = ExecutorPolicy()

_policy: ExecutorPolicy = DEFAULT_POLICY


def get_executor_policy() -> ExecutorPolicy:
    """The ambient policy (``DEFAULT_POLICY`` unless inside a scope)."""
    return _policy


@contextmanager
def executor_policy(policy: ExecutorPolicy | None = None, **overrides: Any):
    """Install ``policy`` (or the default with ``overrides``) for a scope.

    The caching knobs (``fast_forward`` / ``result_cache``) are exported
    as environment variables for the scope when set, so worker processes
    launched inside it inherit them.
    """
    global _policy
    new = policy if policy is not None else DEFAULT_POLICY
    if overrides:
        new = replace(new, **overrides)
    previous = _policy
    _policy = new
    try:
        with ExitStack() as stack:
            if new.result_cache is not None:
                stack.enter_context(result_cache_scope(new.result_cache))
            if new.fast_forward is not None:
                stack.enter_context(fast_forward_scope(new.fast_forward))
            yield new
    finally:
        _policy = previous


@dataclass(frozen=True)
class TaskSpec:
    """One unit of sharded work: a picklable function and its arguments.

    ``key`` is the stable identity retries, speculation, chaos and
    quarantine reporting all hash on (e.g. ``"observe:3"``); ``fields``
    are extra span-open fields when the executor traces per-task spans.
    ``cache_key`` is the optional content address of the task's result:
    when the parent has an ambient result store the executor serves a
    hit instead of launching, and stores the result on completion (the
    same key usually also rides in ``args`` so workers can consult
    *their* local store — see :func:`repro.engine.sweep._shard_cache`).
    """

    key: str
    fn: Callable[..., Any]
    args: tuple
    fields: dict[str, Any] = field(default_factory=dict)
    cache_key: str | None = None


class _Task:
    """Parent-side lifecycle state of one :class:`TaskSpec`."""

    __slots__ = (
        "spec", "launches", "failures", "pool_failures", "break_suspects",
        "resolved", "speculated", "retry_pending", "last_launch_t",
        "backoff_prev", "sids", "span",
    )

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.launches = 0
        self.failures = 0  # per-task worker exceptions
        self.pool_failures = 0  # worker-loss events this task was caught in
        self.break_suspects = 0  # losses where this task was the likely trigger
        self.resolved = False
        self.speculated = False
        self.retry_pending = False
        self.last_launch_t = 0.0
        self.backoff_prev = 0.0
        self.sids: set[int] = set()  # in-flight submission ids
        self.span = -1

    @property
    def live(self) -> bool:
        return bool(self.sids)


class ShardExecutor:
    """Failure-owning wrapper around an executor backend for sharded phases.

    One instance spans both campaign phases (pre-filter and observe) so
    warmed workers are reused; :meth:`run` drains one phase's tasks,
    yielding ``(key, result)`` in completion order, and :meth:`close`
    drains late results, then tears the transport down.

    With an external ``pool`` the executor never rebuilds or shuts it
    down (a synchronous test executor or a caller-shared pool keeps its
    historical semantics): a ``BrokenProcessPool`` there is re-raised
    as a :class:`CampaignError`.  ``backend`` overrides the transport
    entirely — an :class:`~repro.engine.backends.ExecutorBackend`
    instance is used (and closed) as-is, a name is resolved against the
    policy's transport block.
    """

    def __init__(
        self,
        jobs: int,
        policy: ExecutorPolicy | None = None,
        pool: Executor | None = None,
        backend: ExecutorBackend | str | None = None,
    ):
        self.jobs = int(jobs)
        self.policy = policy if policy is not None else get_executor_policy()
        self.backend = make_backend(backend, self.policy, self.jobs, pool)
        self._rng = random.Random(self.policy.backoff_seed)
        self._seq = itertools.count()
        self._sids: dict[int, tuple[_Task, bool]] = {}  # sid -> (task, speculative)
        self._known_census: frozenset = frozenset()
        self._phase = "shard"
        self._telemetry: CampaignTelemetry | None = None
        self.quarantined: dict[str, str] = {}  # task key -> last error description
        self.late_results: dict[str, Any] = {}  # quarantined key -> late result

    # -- lifecycle ------------------------------------------------------------

    def prime_blob(self, blob: bytes) -> str | bytes:
        """Register a shared blob with the transport; tasks carry the ref.

        Local owned pools install it into every worker via the pool
        initializer (rebuilds re-prime exactly once); the TCP backend
        uploads it once per worker; external pools fall back to the raw
        bytes riding in task args.
        """
        return self.backend.blob_ref(blob)

    def _record_late(self, task: _Task, result: Any) -> None:
        """A quarantined (or otherwise written-off) task completed anyway.

        The verdict already excludes it — re-incorporating out-of-band
        results would break the batch-aligned resume contract — but the
        completion is drained and logged so ``--allow-partial`` reports
        say which quarantined shards actually finished (a re-run will
        resolve them cheaply).
        """
        key = task.spec.key
        self.late_results[key] = result
        if self._telemetry is not None:
            self._telemetry.late_results += 1
        observer = get_observer()
        if observer.enabled:
            observer.tracer.point("late_result", key=key, phase=self._phase)
            observer.progress.note(
                f"note: quarantined {self._phase} {key} completed late "
                f"(result logged, not folded; a re-run will retry it)"
            )

    def close(self) -> None:
        """Drain late completions, then release the transport."""
        try:
            for ev in self.backend.poll(0.0):
                if not isinstance(ev, TaskDone):
                    continue
                entry = self._sids.pop(ev.sid, None)
                if entry is not None and not entry[0].resolved:
                    self._record_late(entry[0], ev.result)
        except CampaignError:
            pass  # teardown must not mask the caller's outcome
        finally:
            self.backend.close()

    # -- the drain ------------------------------------------------------------

    def run(
        self,
        tasks: Iterable[TaskSpec],
        *,
        phase: str = "shard",
        telemetry: CampaignTelemetry | None = None,
        span_name: str | None = None,
        span_parent: int | None = None,
    ) -> Iterator[tuple[str, Any]]:
        """Drain one phase: yield ``(key, result)`` as tasks resolve.

        Tasks that exhaust their attempts are quarantined, not raised —
        the phase always drains to completion and the caller decides
        (via :attr:`quarantined` / ``policy.allow_partial``) whether a
        partial sweep is an error.  When ``span_name`` is given and
        observability is on, each task gets a trace span from first
        launch to resolution.
        """
        policy = self.policy
        observer = get_observer()
        tracer, progress = observer.tracer, observer.progress
        tracker = ShardTracker(
            tracer,
            progress,
            kind=phase,
            interval=policy.heartbeat_interval_s,
            straggler_factor=policy.straggler_factor,
            min_samples=policy.min_samples,
        )
        self._known_census = frozenset()  # re-announce workers per phase
        self._phase = phase
        self._telemetry = telemetry
        remote = self.backend.name != "local"
        store = result_cache()
        states = {spec.key: _Task(spec) for spec in tasks}
        retries: list[tuple[float, int, str]] = []  # (ready time, seq, key)
        open_keys = {k for k in states if k not in self.quarantined}

        def launch(task: _Task, speculative: bool = False) -> None:
            index = task.launches
            task.launches += 1
            task.last_launch_t = time.perf_counter()
            if index == 0:
                tracker.submitted(task.spec.key)
                if span_name is not None and observer.enabled:
                    task.span = tracer.open_span(
                        span_name, parent=span_parent, **task.spec.fields
                    )
            sid = next(self._seq)
            self._sids[sid] = (task, speculative)
            task.sids.add(sid)
            self.backend.submit(sid, task.spec, index, policy.chaos)

        def fail(task: _Task, err: BaseException | str, pool_wide: bool) -> None:
            if task.resolved or task.spec.key in self.quarantined or task.retry_pending:
                return
            if pool_wide:
                task.pool_failures += 1
            else:
                task.failures += 1
            exhausted = (
                task.failures >= policy.max_attempts
                or task.break_suspects >= 2 * policy.max_attempts
                or task.pool_failures >= 4 * policy.max_attempts
            )
            if exhausted:
                quarantine(task, err)
                return
            if telemetry is not None:
                telemetry.shard_retries += 1
            attempt = task.failures + task.pool_failures
            if observer.enabled:
                tracer.point(
                    "retry", key=task.spec.key, phase=phase,
                    attempt=attempt, error=repr(err),
                )
            # Exponential backoff with decorrelated jitter: each delay is
            # uniform in [base, 3 x previous], capped — retries of a
            # flapping worker spread out instead of thundering back in.
            prev = task.backoff_prev or policy.backoff_base_s
            delay = min(
                policy.backoff_cap_s,
                self._rng.uniform(policy.backoff_base_s, 3.0 * prev),
            )
            task.backoff_prev = delay
            task.retry_pending = True
            heapq.heappush(
                retries, (time.perf_counter() + delay, next(self._seq), task.spec.key)
            )

        def quarantine(task: _Task, err: BaseException | str) -> None:
            key = task.spec.key
            self.quarantined[key] = str(err) if isinstance(err, str) else repr(err)
            open_keys.discard(key)
            # Still-running launches are written off — but their sid
            # entries stay known so a completion that races teardown is
            # logged as a late result instead of vanishing.
            self.backend.abandon(task.sids)
            if telemetry is not None:
                telemetry.shards_quarantined += 1
            if observer.enabled:
                tracer.point(
                    "quarantine", key=key, phase=phase,
                    attempts=task.launches, error=self.quarantined[key],
                )
                progress.note(
                    f"warning: {phase} {key} quarantined after "
                    f"{task.launches} launch(es): {self.quarantined[key]}"
                )
                if task.span >= 0:
                    tracer.close_span(task.span, quarantined=True)
                    task.span = -1

        def workers_lost(ev: WorkersLost) -> None:
            if ev.fatal:
                raise CampaignError(
                    f"worker pool broke during {phase} and the external "
                    f"executor cannot be rebuilt: {ev.error}"
                )
            if ev.rebuilt:
                if telemetry is not None:
                    telemetry.pool_rebuilds += 1
                if observer.enabled:
                    tracer.point("pool_rebuild", phase=phase, error=ev.error)
                    progress.note(
                        f"warning: worker pool broke during {phase}; rebuilding"
                    )
            # Charge each unresolved casualty one worker-loss failure and
            # schedule its relaunch.  The loss's *suspects* are charged
            # too: the tasks the dead workers were running, when the
            # backend knows them, else the most recently launched open
            # casualty — a task that kills its worker dies within
            # milliseconds of launching, so launch recency attributes
            # the loss far better than charging the whole blast radius.
            casualties: list[_Task] = []
            culprits: list[_Task] = []
            for sid in ev.sids:
                entry = self._sids.pop(sid, None)
                if entry is None:
                    continue
                task = entry[0]
                task.sids.discard(sid)
                casualties.append(task)
                if sid in ev.culprits:
                    culprits.append(task)
                if ev.worker is not None:
                    if telemetry is not None:
                        telemetry.dist_requeues += 1
                    if observer.enabled:
                        tracer.point(
                            "requeue", key=task.spec.key, phase=phase,
                            worker=ev.worker,
                        )
            open_casualties = [
                t for t in casualties
                if not t.resolved and t.spec.key not in self.quarantined
            ]
            if ev.culprits:
                suspects = [t for t in culprits if t in open_casualties]
            else:
                suspects = open_casualties and [
                    max(open_casualties, key=lambda t: t.last_launch_t)
                ]
            for suspect in suspects:
                suspect.break_suspects += 1
            for task in casualties:
                fail(task, ev.error, pool_wide=True)

        def handle(ev: Any) -> Iterator[tuple[str, Any]]:
            if isinstance(ev, TaskDone):
                entry = self._sids.pop(ev.sid, None)
                if entry is None:
                    return
                task, speculative = entry
                task.sids.discard(ev.sid)
                if ev.worker is not None and telemetry is not None:
                    telemetry.worker_tasks[ev.worker] = (
                        telemetry.worker_tasks.get(ev.worker, 0) + 1
                    )
                    if ev.stolen:
                        telemetry.dist_steals += 1
                if task.resolved:
                    return  # speculation loser: byte-identical duplicate
                if task.spec.key in self.quarantined:
                    self._record_late(task, ev.result)
                    return
                task.resolved = True
                open_keys.discard(task.spec.key)
                tracker.completed(task.spec.key)
                self.backend.abandon(task.sids)  # losing duplicates, if any
                if store is not None and task.spec.cache_key is not None:
                    store.put(task.spec.cache_key, ev.result)
                if speculative and telemetry is not None:
                    telemetry.speculative_wins += 1
                if task.span >= 0:
                    tracer.close_span(
                        task.span,
                        attempts=task.launches,
                        speculated=task.speculated,
                        worker=ev.worker,
                    )
                    task.span = -1
                yield task.spec.key, ev.result
            elif isinstance(ev, TaskFailed):
                entry = self._sids.pop(ev.sid, None)
                if entry is None:
                    return
                task = entry[0]
                task.sids.discard(ev.sid)
                fail(task, ev.error, pool_wide=False)
            elif isinstance(ev, WorkersLost):
                workers_lost(ev)
            elif isinstance(ev, WorkerJoined):
                if telemetry is not None:
                    telemetry.workers_joined += 1
                if observer.enabled:
                    tracer.point("worker_join", worker=ev.worker, phase=phase)
                    progress.note(f"worker {ev.worker} joined during {phase}")
            elif isinstance(ev, WorkerLeft):
                if telemetry is not None:
                    telemetry.workers_left += 1
                if observer.enabled:
                    tracer.point(
                        "worker_leave", worker=ev.worker, phase=phase,
                        reason=ev.reason,
                    )
                    progress.note(
                        f"worker {ev.worker} left during {phase} ({ev.reason})"
                    )

        def tick() -> None:
            now = time.perf_counter()
            if self.policy.on_workers is not None:
                census = self.backend.census()
                if census and census != self._known_census:
                    self._known_census = census
                    self.policy.on_workers(phase, census)
            tracker.tick(self.backend.census_detail() if remote else None)
            stalled = set(tracker.stragglers())
            for key in list(open_keys):
                task = states[key]
                if task.resolved or not task.live:
                    continue
                elapsed = now - task.last_launch_t
                is_stalled = key in stalled or (
                    policy.speculate_after_s is not None
                    and elapsed > policy.speculate_after_s
                )
                if not is_stalled:
                    continue
                if policy.speculate and not task.speculated and not task.retry_pending:
                    task.speculated = True
                    if telemetry is not None:
                        telemetry.speculative_launches += 1
                    if observer.enabled:
                        tracer.point(
                            "speculate", key=key, phase=phase, elapsed=round(elapsed, 3)
                        )
                        progress.note(
                            f"speculating {phase} {key} (stalled {elapsed:.1f}s)"
                        )
                    launch(task, speculative=True)
                elif (
                    policy.hang_timeout_s is not None
                    and elapsed > policy.hang_timeout_s
                    and (task.speculated or not policy.speculate)
                ):
                    quarantine(task, f"hung for {elapsed:.1f}s (timeout)")

        # Initial dispatch.  A task whose result is already in the
        # parent's store resolves here without ever launching — the
        # warm-cache path of a repeated (or killed-and-resumed) sweep.
        for task in states.values():
            if task.spec.key not in open_keys:
                continue
            if store is not None and task.spec.cache_key is not None:
                hit = store.get(task.spec.cache_key)
                if hit is not None:
                    task.resolved = True
                    open_keys.discard(task.spec.key)
                    if observer.enabled:
                        tracer.point(
                            "cache_hit", scope="shard",
                            key=task.spec.key, phase=phase,
                        )
                    yield task.spec.key, hit
                    continue
            launch(task)

        while open_keys:
            now = time.perf_counter()
            while retries and retries[0][0] <= now:
                _, _, key = heapq.heappop(retries)
                task = states[key]
                task.retry_pending = False
                if not task.resolved and key in open_keys:
                    launch(task)
            timeout = tracker.interval
            if retries:
                timeout = min(timeout, max(0.0, retries[0][0] - now))
            if not any(states[k].live for k in open_keys):
                if not retries:  # only quarantined hangs remain
                    break
                timeout = min(timeout, 0.1) or 0.01
            for ev in self.backend.poll(timeout):
                yield from handle(ev)
            tick()
