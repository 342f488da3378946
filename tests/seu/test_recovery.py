"""Chaos-driven recovery: a disturbed campaign converges to golden bytes.

The acceptance criterion for the fault-tolerant executor: a sharded
campaign run under a chaos schedule that kills workers, hangs shards and
delays launches must complete with verdict bytes **identical** to the
undisturbed run (the pinned golden), with every recovery recorded in
telemetry — and a schedule the executor cannot survive (a poison shard)
must degrade gracefully: checkpoint everything resolved, raise unless
``allow_partial``, and resume chaos-free to the exact golden bytes.

The chaos schedules are pure functions of ``(seed, kind, key)``; the
seed=3 schedules below were chosen so that at any worker count >= 2 each
phase suffers at least one worker crash and at least one hang.  Worker
count defaults to 2 and is raised by the CI chaos matrix via
``REPRO_CHAOS_JOBS``.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.engine import ChaosPolicy, ExecutorPolicy, executor_policy
from repro.errors import CampaignError
from repro.obs import observe
from repro.obs.report import load_trace
from repro.seu import (
    CampaignConfig,
    load_result,
    resume_campaign,
    run_campaign,
)
from tests.utils.goldens import assert_golden_verdicts

# A wedged executor must fail loudly, not hang the suite (the SIGALRM
# fallback in tests/conftest.py enforces this without pytest-timeout).
pytestmark = pytest.mark.timeout(300)

CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)

#: worker count for the chaos runs (the CI chaos matrix sweeps this)
JOBS = int(os.environ.get("REPRO_CHAOS_JOBS", "2"))

# seed=3 schedules (verified): every phase draws >=1 crash and >=1 hang
# within the first 8 task keys, so they bite at any jobs >= 2.
MATRIX_CHAOS = ChaosPolicy(
    seed=3, crash=0.3, hang=0.15, hang_s=6.0, delay=0.3, delay_s=0.02
)
#: poisons observe:2 (crashes every launch); prefilter chunks stay clean
POISON_CHAOS = ChaosPolicy(seed=3, crash=0.08, launches=1000)
#: hangs observe:0 for 30s — only speculation can finish this in time
HANG_CHAOS = ChaosPolicy(seed=3, hang=0.06, hang_s=30.0)

# max_attempts=6: every chaos crash breaks the whole pool; the matrix
# schedule crashes often enough that innocent in-flight shards (charged
# against the 4x pool-failure backstop, or as mis-attributed suspects
# when two launches race) need generous budgets to never quarantine.
MATRIX_POLICY = ExecutorPolicy(
    max_attempts=6,
    backoff_base_s=0.01,
    backoff_cap_s=0.1,
    speculate_after_s=0.5,
    heartbeat_interval_s=0.1,
    chaos=MATRIX_CHAOS,
)


def _recovery_points(trace_path):
    trace = load_trace(trace_path)
    kinds = [p.get("kind") for s in trace.segments for p in s.points]
    return kinds


class TestChaosGoldenIdentity:
    """Crash+hang+delay chaos at every shrinker combination -> golden."""

    @pytest.mark.parametrize(
        "collapse,retire",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_matrix_chaos_matches_golden(self, mult_hw, tmp_path, collapse, retire):
        trace_path = str(tmp_path / "chaos.jsonl")
        with observe(trace_path, progress=False, label="chaos"):
            with executor_policy(MATRIX_POLICY):
                result = run_campaign(
                    mult_hw, CFG, jobs=JOBS, collapse=collapse, retire=retire
                )
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        telem = result.telemetry
        assert telem.shards_quarantined == 0
        assert telem.candidates_quarantined == 0
        # The schedule guarantees >=1 crash per phase: the pool must have
        # been rebuilt, and the recovery must be visible in the trace.
        assert telem.pool_rebuilds >= 1
        kinds = _recovery_points(trace_path)
        assert "pool_rebuild" in kinds
        assert telem.shard_retries >= 1 or telem.speculative_launches >= 1

    def test_hang_rescued_by_speculation(self, mult_hw):
        policy = ExecutorPolicy(
            speculate_after_s=0.5, heartbeat_interval_s=0.1, chaos=HANG_CHAOS
        )
        with executor_policy(policy):
            result = run_campaign(mult_hw, CFG, jobs=JOBS)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        telem = result.telemetry
        assert telem.speculative_launches >= 1
        assert telem.speculative_wins >= 1
        assert telem.shards_quarantined == 0
        # The 30s sleeper must not gate the wall clock.
        assert telem.wall_seconds < 25.0


class TestWorkerDeath:
    """SIGKILL a live worker (not chaos: a real external kill)."""

    def _policy_killing_during(self, phase_to_kill):
        killed = {"done": False}

        def on_workers(phase, pids):
            if phase == phase_to_kill and not killed["done"]:
                killed["done"] = True
                try:
                    os.kill(sorted(pids)[0], signal.SIGKILL)
                except ProcessLookupError:
                    pass

        # A small universal delay keeps workers busy long enough that
        # the kill lands while the phase is genuinely in flight.
        chaos = ChaosPolicy(seed=0, delay=1.0, delay_s=0.2)
        policy = ExecutorPolicy(
            max_attempts=4,
            backoff_base_s=0.01,
            backoff_cap_s=0.1,
            heartbeat_interval_s=0.05,
            chaos=chaos,
            on_workers=on_workers,
        )
        return policy, killed

    @pytest.mark.parametrize("phase", ["prefilter", "observe"])
    def test_sigkill_live_worker_matches_golden(self, mult_hw, phase):
        policy, killed = self._policy_killing_during(phase)
        with executor_policy(policy):
            result = run_campaign(mult_hw, CFG, jobs=JOBS)
        assert killed["done"], f"hook never saw a live worker during {phase}"
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        telem = result.telemetry
        assert telem.pool_rebuilds >= 1
        assert telem.shards_quarantined == 0


class TestPoisonQuarantine:
    """A shard that crashes every launch: degrade, don't wedge."""

    POLICY = ExecutorPolicy(
        max_attempts=2, backoff_base_s=0.01, backoff_cap_s=0.05, chaos=POISON_CHAOS
    )

    def test_partial_sweep_raises_by_default(self, mult_hw):
        with executor_policy(self.POLICY):
            with pytest.raises(CampaignError, match="quarantined"):
                run_campaign(mult_hw, CFG, jobs=JOBS)

    def test_allow_partial_completes_with_exclusions(self, mult_hw, full_golden):
        with executor_policy(self.POLICY, allow_partial=True):
            result = run_campaign(mult_hw, CFG, jobs=JOBS, collapse=False)
        telem = result.telemetry
        assert telem.shards_quarantined == 1
        assert telem.candidates_quarantined > 0
        assert telem.pool_rebuilds >= 1
        # The partial result is a strict, consistent subset of the full
        # sweep: every candidate it did test agrees with the golden run
        # (verdicts are dense over the bitstream, indexed by bit).
        assert result.n_candidates < full_golden.n_candidates
        assert np.setdiff1d(result.candidate_bits, full_golden.candidate_bits).size == 0
        tested = result.candidate_bits
        assert np.array_equal(
            result.verdicts[tested], full_golden.verdicts[tested]
        )

    @pytest.mark.parametrize("collapse", [True, False])
    def test_resume_after_quarantine_reaches_golden(
        self, mult_hw, tmp_path, collapse
    ):
        """The error message's promise: everything resolved was
        checkpointed, and a chaos-free re-run finishes the job exactly."""
        path = str(tmp_path / "poisoned.npz")
        with executor_policy(self.POLICY):
            with pytest.raises(CampaignError, match="checkpointed"):
                run_campaign(
                    mult_hw, CFG, jobs=JOBS, checkpoint_path=path, collapse=collapse
                )
        part = load_result(path)
        assert part.n_candidates > 0  # progress survived the poison

        resumed = resume_campaign(mult_hw, path, jobs=2, collapse=collapse)
        assert_golden_verdicts("seu_verdicts", resumed.verdicts)
        assert np.unique(resumed.candidate_bits).size == resumed.candidate_bits.size


@pytest.fixture(scope="module")
def full_golden(mult_hw):
    return run_campaign(mult_hw, CFG)
