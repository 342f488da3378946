"""Unit tests for the fault-tolerant shard executor and chaos policy.

These exercise :mod:`repro.engine.executor` and
:mod:`repro.engine.chaos` directly, below the campaign drivers: the
deterministic chaos schedule, the ambient policy scope, retry and
quarantine bookkeeping, pool rebuilds after worker death, speculative
re-execution, and external-pool passthrough semantics.  The end-to-end
verdict-identity contract on the real fault models lives in
``tests/seu/test_recovery.py``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, Future

import pytest

from repro.engine.backends import LocalPoolBackend, WorkersLost
from repro.engine.chaos import CRASH_EXIT_CODE, ChaosPolicy
from repro.engine.executor import (
    DEFAULT_POLICY,
    ExecutorPolicy,
    ShardExecutor,
    TaskSpec,
    executor_policy,
    get_executor_policy,
)
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError


# -- module-level worker functions (must pickle across processes) --------------


def _double(x):
    return 2 * x


def _slow_double(x, seconds):
    time.sleep(seconds)
    return 2 * x


def _exit_after(seconds):
    time.sleep(seconds)
    os._exit(70)


def _always_fail(x):
    raise ValueError(f"boom {x}")


def _flaky(marker_dir, key, fails, x):
    """Fail the first ``fails`` calls for ``key``, then succeed."""
    count = len([n for n in os.listdir(marker_dir) if n.startswith(key + ".")])
    with open(os.path.join(marker_dir, f"{key}.{count}"), "w"):
        pass
    if count < fails:
        raise RuntimeError(f"flaky {key} attempt {count}")
    return 2 * x


pytestmark = pytest.mark.timeout(120)


class InlineExecutor(Executor):
    """Run submissions synchronously in-process (deterministic, no pool)."""

    def submit(self, fn, /, *args, **kwargs):
        f: Future = Future()
        try:
            f.set_result(fn(*args, **kwargs))
        except BaseException as err:  # noqa: BLE001 - forwarded via the future
            f.set_exception(err)
        return f


# -- chaos policy --------------------------------------------------------------


class TestChaosPolicy:
    def test_parse_full_spec(self):
        spec = ChaosPolicy.parse(
            "seed=3, crash=0.4, hang=0.2, hang-s=6, delay=0.5, delay-s=0.02, launches=2"
        )
        assert spec == ChaosPolicy(
            seed=3, crash=0.4, hang=0.2, hang_s=6.0, delay=0.5, delay_s=0.02, launches=2
        )

    def test_parse_empty_spec_is_default(self):
        assert ChaosPolicy.parse("") == ChaosPolicy()

    @pytest.mark.parametrize(
        "spec",
        ["crash", "frobnicate=1", "crash=lots", "crash=1.5", "hang-s=-1", "launches=-2"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(CampaignError):
            ChaosPolicy.parse(spec)

    def test_schedule_is_deterministic(self):
        a = ChaosPolicy(seed=3, crash=0.3, hang=0.3, delay=0.3)
        b = ChaosPolicy(seed=3, crash=0.3, hang=0.3, delay=0.3)
        keys = [f"observe:{i}" for i in range(64)]
        assert [a.decide(k, 0) for k in keys] == [b.decide(k, 0) for k in keys]
        c = ChaosPolicy(seed=4, crash=0.3, hang=0.3, delay=0.3)
        assert [a.decide(k, 0) for k in keys] != [c.decide(k, 0) for k in keys]

    def test_launch_cap_makes_faults_transient(self):
        spec = ChaosPolicy(seed=0, crash=1.0, launches=1)
        assert spec.decide("observe:0", 0) == "crash"
        assert spec.decide("observe:0", 1) is None

    def test_poison_fails_every_launch(self):
        spec = ChaosPolicy(seed=0, crash=1.0, launches=1000)
        assert all(spec.decide("observe:0", i) == "crash" for i in range(10))

    def test_draw_is_launch_independent(self):
        # Whether a key is fault-scheduled is a property of the key:
        # raising ``launches`` never reshuffles which keys fault.
        spec = ChaosPolicy(seed=9, crash=0.3, launches=3)
        for i in range(32):
            key = f"observe:{i}"
            acts = {spec.decide(key, launch) for launch in range(3)}
            assert len(acts) == 1

    def test_most_destructive_kind_wins(self):
        # With every probability at 1.0 each key draws all three kinds;
        # crash must win so raising delay never reshuffles crashes.
        spec = ChaosPolicy(seed=0, crash=1.0, hang=1.0, delay=1.0)
        assert spec.decide("observe:0", 0) == "crash"

    def test_apply_delay_sleeps(self):
        spec = ChaosPolicy(seed=0, delay=1.0, delay_s=0.05)
        t0 = time.perf_counter()
        spec.apply("observe:0", 0)
        assert time.perf_counter() - t0 >= 0.05

    def test_crash_exit_code_is_distinguishable(self):
        assert 0 < CRASH_EXIT_CODE < 128  # not a signal status


# -- ambient policy scope ------------------------------------------------------


class TestExecutorPolicyScope:
    def test_default_outside_any_scope(self):
        assert get_executor_policy() is DEFAULT_POLICY

    def test_scope_installs_and_restores(self):
        custom = ExecutorPolicy(max_attempts=7)
        with executor_policy(custom) as active:
            assert active is custom
            assert get_executor_policy() is custom
        assert get_executor_policy() is DEFAULT_POLICY

    def test_overrides_on_default(self):
        with executor_policy(allow_partial=True, max_attempts=5) as active:
            assert active.allow_partial and active.max_attempts == 5
            assert active.backoff_base_s == DEFAULT_POLICY.backoff_base_s
        assert get_executor_policy() is DEFAULT_POLICY

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with executor_policy(max_attempts=9):
                raise RuntimeError
        assert get_executor_policy() is DEFAULT_POLICY


# -- shard executor ------------------------------------------------------------


def _drain(executor, tasks, telemetry=None):
    return dict(executor.run(tasks, telemetry=telemetry))


class TestShardExecutorInline:
    """External (synchronous) pool: the historical no-recovery semantics."""

    def test_yields_all_results(self):
        ex = ShardExecutor(2, pool=InlineExecutor())
        tasks = [TaskSpec(f"t:{i}", _double, (i,)) for i in range(5)]
        assert _drain(ex, tasks) == {f"t:{i}": 2 * i for i in range(5)}
        ex.close()  # no-op for external pools

    def test_empty_task_list(self):
        ex = ShardExecutor(2, pool=InlineExecutor())
        assert _drain(ex, []) == {}

    def test_exhausted_failures_quarantine(self):
        telem = CampaignTelemetry()
        policy = ExecutorPolicy(max_attempts=2, backoff_base_s=0.001, backoff_cap_s=0.005)
        ex = ShardExecutor(2, policy, pool=InlineExecutor())
        results = _drain(
            ex, [TaskSpec("t:0", _always_fail, (0,)), TaskSpec("t:1", _double, (1,))], telem
        )
        assert results == {"t:1": 2}
        assert set(ex.quarantined) == {"t:0"}
        assert "boom" in ex.quarantined["t:0"]
        assert telem.shards_quarantined == 1
        assert telem.shard_retries == 1  # attempt 2 of 2 quarantines, no retry

    def test_quarantined_key_skipped_on_next_phase(self):
        # A key quarantined in one run() call stays quarantined in later
        # calls on the same executor (one instance spans both phases).
        policy = ExecutorPolicy(max_attempts=1)
        ex = ShardExecutor(2, policy, pool=InlineExecutor())
        assert _drain(ex, [TaskSpec("t:0", _always_fail, (0,))]) == {}
        assert _drain(ex, [TaskSpec("t:0", _double, (0,))]) == {}

    def test_campaign_error_propagates_immediately(self):
        # CampaignError is a deliberate abort signal, never retried.
        def raise_campaign():
            raise CampaignError("bad config")

        ex = ShardExecutor(2, pool=InlineExecutor())
        with pytest.raises(CampaignError, match="bad config"):
            _drain(ex, [TaskSpec("t:0", raise_campaign, ())])


class TestShardExecutorProcessPool:
    """Own process pool: retries, rebuilds, speculation, quarantine."""

    def test_plain_drain(self):
        ex = ShardExecutor(2)
        try:
            tasks = [TaskSpec(f"t:{i}", _double, (i,)) for i in range(6)]
            assert _drain(ex, tasks) == {f"t:{i}": 2 * i for i in range(6)}
        finally:
            ex.close()

    def test_flaky_worker_retries_to_success(self, tmp_path):
        telem = CampaignTelemetry()
        # No speculation: t:0 outlives the other tasks' tiny runtimes, so
        # the straggler tracker could launch a duplicate whose success
        # lands first and leaves the failed launch nothing to retry.
        policy = ExecutorPolicy(
            max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05, speculate=False
        )
        ex = ShardExecutor(2, policy)
        try:
            tasks = [
                TaskSpec(f"t:{i}", _flaky, (str(tmp_path), f"t:{i}", 1 if i == 0 else 0, i))
                for i in range(4)
            ]
            assert _drain(ex, tasks, telem) == {f"t:{i}": 2 * i for i in range(4)}
        finally:
            ex.close()
        assert telem.shard_retries == 1
        assert telem.shards_quarantined == 0

    def test_worker_crash_rebuilds_pool(self):
        telem = CampaignTelemetry()
        chaos = ChaosPolicy(seed=0, crash=1.0, launches=1)  # every launch-0 crashes
        policy = ExecutorPolicy(
            max_attempts=3, backoff_base_s=0.01, backoff_cap_s=0.05, chaos=chaos
        )
        ex = ShardExecutor(2, policy)
        try:
            tasks = [TaskSpec(f"t:{i}", _double, (i,)) for i in range(4)]
            assert _drain(ex, tasks, telem) == {f"t:{i}": 2 * i for i in range(4)}
        finally:
            ex.close()
        assert telem.pool_rebuilds >= 1
        assert telem.shards_quarantined == 0

    def test_poison_crash_quarantines_without_wedging(self):
        telem = CampaignTelemetry()
        chaos = ChaosPolicy(seed=0, crash=1.0, launches=1000)  # crashes every launch
        policy = ExecutorPolicy(
            max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.05, chaos=chaos
        )
        ex = ShardExecutor(2, policy)
        try:
            assert _drain(ex, [TaskSpec("t:0", _double, (0,))], telem) == {}
        finally:
            ex.close()
        assert set(ex.quarantined) == {"t:0"}
        assert telem.shards_quarantined == 1
        assert telem.pool_rebuilds >= 1

    def test_speculation_rescues_hung_worker(self):
        telem = CampaignTelemetry()
        chaos = ChaosPolicy(seed=0, hang=1.0, hang_s=60.0, launches=1)
        policy = ExecutorPolicy(
            speculate=True,
            speculate_after_s=0.2,
            heartbeat_interval_s=0.05,
            chaos=chaos,
        )
        ex = ShardExecutor(2, policy)
        t0 = time.perf_counter()
        try:
            assert _drain(ex, [TaskSpec("t:0", _double, (21,))], telem) == {"t:0": 42}
        finally:
            ex.close()
        assert time.perf_counter() - t0 < 30  # did not wait out the hang
        assert telem.speculative_launches >= 1
        assert telem.speculative_wins >= 1

    def test_hang_timeout_quarantines_after_speculation(self):
        telem = CampaignTelemetry()
        chaos = ChaosPolicy(seed=0, hang=1.0, hang_s=60.0, launches=1000)  # poison hang
        policy = ExecutorPolicy(
            speculate=True,
            speculate_after_s=0.1,
            hang_timeout_s=0.5,
            heartbeat_interval_s=0.05,
            chaos=chaos,
        )
        ex = ShardExecutor(2, policy)
        t0 = time.perf_counter()
        try:
            assert _drain(ex, [TaskSpec("t:0", _double, (0,))], telem) == {}
        finally:
            ex.close()
        assert time.perf_counter() - t0 < 30  # close() terminated the sleepers
        assert set(ex.quarantined) == {"t:0"}
        assert "hung" in ex.quarantined["t:0"]
        assert telem.speculative_launches >= 1

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_break_with_cancelled_launch_leaves_no_worker(self):
        """A pool that breaks while an abandoned launch still waits in its
        queue (cancelled, never started) kills every old worker.  The
        standard library's own cleanup dies on that cancelled future
        before it terminates the workers, and a surviving one would block
        interpreter exit."""
        backend = LocalPoolBackend(2)
        try:
            backend.submit(1, TaskSpec("crash", _exit_after, (0.3,)), 0, None)
            backend.submit(2, TaskSpec("slow", _slow_double, (2, 1.0)), 0, None)
            for sid in range(3, 9):
                backend.submit(sid, TaskSpec(f"t:{sid}", _double, (sid,)), 0, None)
            backend.abandon([8])
            workers = list(backend._pool._processes.values())
            lost = []
            deadline = time.monotonic() + 30.0
            while not lost and time.monotonic() < deadline:
                lost = [ev for ev in backend.poll(0.1) if isinstance(ev, WorkersLost)]
            assert lost and set(lost[0].sids) == set(range(1, 8))
            assert lost[0].culprits == (1,)  # the launch its worker died running
        finally:
            backend.close()
        for proc in workers:
            proc.join(5.0)
        leaked = [proc for proc in workers if proc.is_alive()]
        for proc in leaked:
            proc.kill()  # a failing run must not also hang the session's exit
        assert leaked == []

    def test_on_workers_hook_sees_live_pids(self):
        seen: list[frozenset[int]] = []
        policy = ExecutorPolicy(
            heartbeat_interval_s=0.02,
            on_workers=lambda phase, pids: seen.append(pids),
        )
        ex = ShardExecutor(2, policy)
        try:
            tasks = [TaskSpec(f"t:{i}", _slow_double, (i, 0.1)) for i in range(4)]
            _drain(ex, tasks)
        finally:
            ex.close()
        assert seen and all(pids for pids in seen)


class TestBackoff:
    def test_backoff_stays_within_cap(self, tmp_path):
        # Three consecutive failures with a tight cap must resolve fast:
        # every decorrelated-jitter delay is clamped to backoff_cap_s.
        policy = ExecutorPolicy(
            max_attempts=4, backoff_base_s=0.005, backoff_cap_s=0.03, backoff_seed=1
        )
        ex = ShardExecutor(2, policy, pool=InlineExecutor())
        t0 = time.perf_counter()
        results = _drain(
            ex, [TaskSpec("t:0", _flaky, (str(tmp_path), "t:0", 3, 5))]
        )
        elapsed = time.perf_counter() - t0
        assert results == {"t:0": 10}
        assert elapsed < 2.0  # 3 retries x <=0.03s backoff, not exponential blowup

    def test_backoff_seed_reproducible(self):
        a = ShardExecutor(1, ExecutorPolicy(backoff_seed=42), pool=InlineExecutor())
        b = ShardExecutor(1, ExecutorPolicy(backoff_seed=42), pool=InlineExecutor())
        seq_a = [a._rng.uniform(0, 1) for _ in range(8)]
        seq_b = [b._rng.uniform(0, 1) for _ in range(8)]
        assert seq_a == seq_b
