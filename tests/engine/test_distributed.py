"""Loopback-TCP distributed execution: elasticity, recovery, golden bytes.

Every test here runs real ``repro worker`` subprocesses against a
:class:`~repro.engine.distributed.TcpBackend` bound to an ephemeral
loopback port.  The acceptance bar is the same one the local executor
carries: whatever the membership does mid-campaign — late joiners
stealing work, a SIGKILLed worker's in-flight shard requeued — verdict
bytes match the single-process golden SHA exactly.
"""

from __future__ import annotations

import operator
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import ChaosPolicy, ExecutorPolicy, executor_policy
from repro.engine.executor import ShardExecutor, TaskSpec
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError
from repro.seu import CampaignConfig, run_campaign, run_multibit_campaign
from tests.utils.goldens import assert_golden_verdicts
from tests.utils.reference_models import seu_campaign

pytestmark = pytest.mark.timeout(300)

REPO = Path(__file__).resolve().parents[2]

CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


def _spawn_worker(connect: str, name: str, *extra: str) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess against ``connect``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", connect, "--name", name, *extra],
        env=env,
        cwd=str(REPO),
    )


def _reap(procs, timeout=15.0):
    codes = []
    for proc in procs:
        try:
            codes.append(proc.wait(timeout=timeout))
        except subprocess.TimeoutExpired:
            proc.kill()
            codes.append(proc.wait(timeout=5.0))
    return codes


@pytest.fixture()
def kill_leftovers():
    procs: list[subprocess.Popen] = []
    yield procs
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
    _reap(procs, timeout=5.0)


def _tcp_policy(**kw) -> ExecutorPolicy:
    base = dict(
        transport="tcp",
        listen="127.0.0.1:0",
        join_timeout_s=60.0,
        backoff_base_s=0.01,
        backoff_cap_s=0.1,
    )
    base.update(kw)
    return ExecutorPolicy(**base)


class TestBackendDrain:
    """Protocol-level drains with stdlib task functions."""

    def test_two_workers_drain_and_exit_clean(self, kill_leftovers):
        ex = ShardExecutor(4, _tcp_policy(min_workers=2))
        telem = CampaignTelemetry()
        try:
            workers = [
                _spawn_worker(ex.backend.address, f"w{i}") for i in range(2)
            ]
            kill_leftovers.extend(workers)
            tasks = [TaskSpec(f"t:{i}", operator.mul, (i, 3)) for i in range(12)]
            out = dict(ex.run(tasks, phase="drain", telemetry=telem))
        finally:
            ex.close()
        assert out == {f"t:{i}": 3 * i for i in range(12)}
        assert telem.workers_joined == 2
        assert sum(telem.worker_tasks.values()) == 12
        assert _reap(workers) == [0, 0]  # bye -> clean exit

    def test_announce_file_discovery(self, tmp_path, kill_leftovers):
        announce = str(tmp_path / "addr")
        # Worker starts FIRST, polling a not-yet-written announce file.
        worker = _spawn_worker(f"@{announce}", "w0")
        kill_leftovers.append(worker)
        ex = ShardExecutor(2, _tcp_policy(min_workers=1, announce=announce))
        try:
            out = dict(
                ex.run([TaskSpec("t:0", operator.add, (20, 22))], phase="drain")
            )
        finally:
            ex.close()
        assert out == {"t:0": 42}
        assert _reap([worker]) == [0]

    def test_no_workers_raises_with_join_hint(self):
        ex = ShardExecutor(2, _tcp_policy(min_workers=1, join_timeout_s=0.5))
        try:
            with pytest.raises(CampaignError, match="repro worker --connect"):
                list(ex.run([TaskSpec("t:0", operator.add, (1, 1))]))
        finally:
            ex.close()

    def test_remote_exception_reaches_parent(self, kill_leftovers):
        ex = ShardExecutor(2, _tcp_policy(min_workers=1, max_attempts=2))
        telem = CampaignTelemetry()
        try:
            worker = _spawn_worker(ex.backend.address, "w0")
            kill_leftovers.append(worker)
            # operator.truediv(1, 0) raises ZeroDivisionError remotely on
            # every attempt -> the shard quarantines, the drain survives.
            out = dict(
                ex.run(
                    [
                        TaskSpec("bad", operator.truediv, (1, 0)),
                        TaskSpec("good", operator.mul, (6, 7)),
                    ],
                    phase="drain",
                    telemetry=telem,
                )
            )
        finally:
            ex.close()
        assert out == {"good": 42}
        assert "bad" in ex.quarantined
        assert "ZeroDivisionError" in ex.quarantined["bad"]
        assert telem.shards_quarantined == 1


class TestElasticMembership:
    """Join/leave mid-phase: stealing late joiners, requeued casualties."""

    def test_late_joiner_steals_work(self, kill_leftovers):
        ex = ShardExecutor(4, _tcp_policy(min_workers=1))
        telem = CampaignTelemetry()
        addr = ex.backend.address
        joined, drained = threading.Event(), threading.Event()

        def join_once_w0_is_busy():
            # Join while w0 holds a shard, so every task is already
            # stamped for w0.  A fixed timer can fire before a
            # slow-starting w0 has joined, and the joiner then takes
            # work that was never w0's.
            while not drained.is_set():
                if ex.backend.census_detail().get("w0", {}).get("busy"):
                    kill_leftovers.append(_spawn_worker(addr, "late"))
                    joined.set()
                    return
                time.sleep(0.005)

        try:
            first = _spawn_worker(addr, "w0")
            kill_leftovers.append(first)
            # 16 x 0.25s of sleep: one worker needs ~4s, so the joiner
            # (up ~1.5s after w0 starts its first shard) lands with plenty
            # of queue left to steal.
            tasks = [TaskSpec(f"t:{i}", time.sleep, (0.25,)) for i in range(16)]
            watcher = threading.Thread(target=join_once_w0_is_busy, daemon=True)
            watcher.start()
            try:
                out = dict(ex.run(tasks, phase="drain", telemetry=telem))
            finally:
                drained.set()
                watcher.join(timeout=10.0)
        finally:
            ex.close()
        assert joined.is_set(), "w0 never held a shard"
        assert set(out) == {f"t:{i}" for i in range(16)}
        assert telem.workers_joined == 2
        # Every shard was stamped with owner "w0" (the only worker at
        # submit time), so each task the late joiner pulled is a steal.
        late_done = telem.worker_tasks.get("late", 0)
        assert late_done >= 1
        assert telem.dist_steals >= late_done
        assert telem.worker_tasks.get("w0", 0) >= 1

    def test_sigkilled_worker_shard_requeued(self, kill_leftovers):
        ex = ShardExecutor(4, _tcp_policy(min_workers=2, max_attempts=4))
        telem = CampaignTelemetry()
        killed, drained = threading.Event(), threading.Event()
        try:
            workers = [
                _spawn_worker(ex.backend.address, f"w{i}") for i in range(2)
            ]
            kill_leftovers.extend(workers)
            victim = workers[0]
            tasks = [TaskSpec(f"t:{i}", time.sleep, (0.3,)) for i in range(10)]

            def kill_victim_mid_shard():
                # Kill w0 while it holds a shard.  A fixed timer can fire
                # before a slow-starting victim has even joined, and the
                # drain then waits out the join timeout for it.
                while not drained.is_set():
                    if ex.backend.census_detail().get("w0", {}).get("busy"):
                        victim.send_signal(signal.SIGKILL)
                        killed.set()
                        return
                    time.sleep(0.005)

            killer = threading.Thread(target=kill_victim_mid_shard, daemon=True)
            killer.start()
            try:
                out = dict(ex.run(tasks, phase="drain", telemetry=telem))
            finally:
                drained.set()
                killer.join(timeout=10.0)
        finally:
            ex.close()
        assert killed.is_set(), "w0 never held a shard"
        assert set(out) == {f"t:{i}" for i in range(10)}
        assert telem.workers_left >= 1
        assert telem.dist_requeues >= 1
        assert ex.quarantined == {}


class TestGoldenOverTcp:
    """The acceptance bar: distributed campaigns reproduce golden bytes.

    The campaign drivers build the TCP backend themselves (ambient
    policy, ephemeral port), so workers discover the address through an
    ``--announce`` file — exactly the operational recipe USAGE.md
    documents.
    """

    @pytest.mark.parametrize(
        "collapse,retire",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_seu_golden_with_kill_and_late_joiner(
        self, mult_hw, tmp_path, kill_leftovers, collapse, retire
    ):
        """3 workers, one SIGKILLed mid-observe, one joining mid-campaign:
        verdicts stay byte-identical to the serial golden."""
        announce = str(tmp_path / "addr")
        connect = f"@{announce}"
        state = {"joined": False, "killed": False}
        workers = [_spawn_worker(connect, f"w{i}") for i in range(3)]
        kill_leftovers.extend(workers)

        def on_workers(phase, census):
            if phase == "prefilter" and not state["joined"]:
                state["joined"] = True
                late = _spawn_worker(connect, "late")
                workers.append(late)
                kill_leftovers.append(late)
            elif phase == "observe" and not state["killed"]:
                state["killed"] = True
                workers[0].send_signal(signal.SIGKILL)

        # The universal small delay keeps shards in flight long enough
        # that the late joiner arrives and the kill lands mid-phase.
        policy = _tcp_policy(
            min_workers=3,
            max_attempts=6,
            announce=announce,
            heartbeat_interval_s=0.05,
            chaos=ChaosPolicy(seed=0, delay=1.0, delay_s=0.1),
            on_workers=on_workers,
        )
        with executor_policy(policy):
            result = seu_campaign(mult_hw, CFG, jobs=4, collapse=collapse, retire=retire)
        assert state["killed"], "kill hook never saw the observe phase"
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        telem = result.telemetry
        assert telem.shards_quarantined == 0
        assert telem.workers_joined >= 3
        assert sum(telem.worker_tasks.values()) > 0

    def test_tcp_chaos_drop_reconnect_matches_golden(
        self, mult_hw, tmp_path, kill_leftovers
    ):
        """Connection-drop chaos: workers hang up without answering and
        reconnect; requeues converge to the same golden bytes."""
        announce = str(tmp_path / "addr")
        workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(2)]
        kill_leftovers.extend(workers)
        policy = _tcp_policy(
            min_workers=2,
            max_attempts=6,
            announce=announce,
            heartbeat_interval_s=0.05,
            chaos=ChaosPolicy(seed=3, drop=0.25),
        )
        with executor_policy(policy):
            result = run_campaign(mult_hw, CFG, jobs=4)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        telem = result.telemetry
        assert telem.shards_quarantined == 0
        # seed=3 drop=0.25 fires on several keys: each drop is a
        # disconnect whose in-flight shard gets requeued.
        assert telem.dist_requeues >= 1
        assert telem.workers_left >= 1

    def test_mbu_serial_vs_tcp_identical(self, mult_hw, tmp_path, kill_leftovers):
        cfg = CampaignConfig(
            detect_cycles=48, persist_cycles=0, classify_persistence=False,
            batch_size=32,
        )
        serial = run_multibit_campaign(
            mult_hw, 0.3, k=2, n_trials=96, config=cfg, seed=7, jobs=1
        )
        announce = str(tmp_path / "addr")
        workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(3)]
        kill_leftovers.extend(workers)
        policy = _tcp_policy(min_workers=3, announce=announce)
        with executor_policy(policy):
            dist = run_multibit_campaign(
                mult_hw, 0.3, k=2, n_trials=96, config=cfg, seed=7, jobs=4
            )
        assert serial.n_failures == dist.n_failures
        assert serial.n_trials == dist.n_trials
        assert serial.failure_probability == dist.failure_probability


class TestWorkerJoinTimeout:
    """A worker that never finds a coordinator must fail loudly.

    Regression: ``repro worker --connect @FILE`` used to poll a missing
    announce file until the connect timeout and then exit 1 with no
    message at all — a typo'd path looked like a hung worker.  Now the
    first-join failure is a :class:`CampaignError` (exit 2) naming the
    thing still missing, and ``--join-timeout`` bounds the wait
    explicitly.
    """

    def _run_worker(self, *argv: str, timeout: float = 60.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "worker", *argv],
            env=env, cwd=str(REPO), capture_output=True, text=True,
            timeout=timeout,
        )

    def test_missing_announce_file_fails_with_named_path(self, tmp_path):
        missing = tmp_path / "never-written"
        proc = self._run_worker(
            "--connect", f"@{missing}", "--join-timeout", "2"
        )
        assert proc.returncode == 2
        assert str(missing) in proc.stderr
        assert "--announce" in proc.stderr  # points at the likely fix

    def test_connect_timeout_alone_also_reports(self, tmp_path):
        """Without --join-timeout the old silent exit is gone too."""
        missing = tmp_path / "also-never-written"
        proc = self._run_worker(
            "--connect", f"@{missing}", "--connect-timeout", "2"
        )
        assert proc.returncode == 2
        assert str(missing) in proc.stderr

    def test_unreachable_hostport_names_the_address(self):
        # Port 1 on loopback: reliably refused, never silently absorbed.
        proc = self._run_worker(
            "--connect", "127.0.0.1:1", "--join-timeout", "2"
        )
        assert proc.returncode == 2
        assert "127.0.0.1:1" in proc.stderr

    def test_join_timeout_does_not_cut_short_a_real_join(self, tmp_path, mult_hw):
        """A worker with a tight join timeout still serves a campaign
        that is already announcing."""
        announce = str(tmp_path / "addr")
        policy = _tcp_policy(min_workers=1, announce=announce)
        worker = None
        result_box = {}

        def run():
            with executor_policy(policy):
                result_box["result"] = run_campaign(mult_hw, CFG, jobs=2)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(announce):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            worker = _spawn_worker(f"@{announce}", "timed", "--join-timeout", "10")
            thread.join(timeout=240.0)
            assert not thread.is_alive()
            assert_golden_verdicts("seu_verdicts", result_box["result"].verdicts)
            assert worker.wait(timeout=30.0) == 0
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
                worker.wait(timeout=5.0)
            thread.join(timeout=5.0)
