"""Adapter parity on the shared engine: every sweep, any worker count.

Two layers of protection for the big refactor:

* a **golden regression** pins the SEU campaign (and the half-latch
  sweep) to verdict arrays captured from the pre-engine implementation —
  the refactor must not move a single verdict;
* **identity + kill/resume** checks for the ported sweeps (MBU,
  half-latch, BIST coverage): ``jobs=N`` and any checkpoint/kill/resume
  sequence must converge to the ``jobs=1`` result.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Executor, Future

import numpy as np
import pytest

import repro.engine.sweep as sweepmod
from repro.bist.coverage import run_coverage
from repro.bist.faults import sample_faults
from repro.bist.patterns import clb_test_design
from repro.engine.cache import implemented_design
from repro.seu import (
    CampaignConfig,
    run_campaign,
    run_halflatch_sweep,
    run_multibit_campaign,
)
from tests.netlist.conftest import REFERENCE_PATHS, use_reference_path
from tests.utils.goldens import assert_golden_verdicts

# Same shape as tests/seu: small batches so sweeps span many batches.
CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)
HL_CFG = CampaignConfig(
    detect_cycles=48, persist_cycles=0, classify_persistence=False, batch_size=32
)


class InlineExecutor(Executor):
    def submit(self, fn, /, *args, **kwargs):
        f: Future = Future()
        try:
            f.set_result(fn(*args, **kwargs))
        except BaseException as err:  # noqa: BLE001 - forwarded via the future
            f.set_exception(err)
        return f


class Killed(Exception):
    pass


class DyingCheckpoint:
    """Arm the engine's checkpoint writer to raise after N writes.

    Every write is recorded in :attr:`sizes` (the snapshot's candidate
    count).  The kill tests run pooled under the default collapse: a
    finished shard folds its representatives and their followers on its
    own, so a run with S observe shards writes exactly S - 1 snapshots
    before the final save, in any shard completion order.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._real_save = sweepmod.save_sweep
        self.sizes: list[int] = []

    def arm(self, die_after: int | None = None) -> None:
        """Record every write; raise on write ``die_after + 1``."""
        self.sizes = []
        real_save = self._real_save

        def dying_save(sweep, path):
            self.sizes.append(sweep.n_candidates)
            if die_after is not None and len(self.sizes) > die_after:
                raise Killed()
            real_save(sweep, path)

        self._monkeypatch.setattr(sweepmod, "save_sweep", dying_save)

    def disarm(self) -> None:
        self._monkeypatch.setattr(sweepmod, "save_sweep", self._real_save)

    def assert_one_snapshot_per_shard(self, telemetry, n_candidates: int) -> None:
        """S shards wrote S - 1 snapshots, then the complete result once
        (after the pooled pre-filter snapshot, when it settled any)."""
        n_shards = sum(telemetry.shard_seconds_hist)
        assert n_shards > 1
        assert len(self.sizes) == int(telemetry.n_skipped > 0) + (n_shards - 1) + 1
        assert self.sizes[-1] == n_candidates and self.sizes == sorted(self.sizes)


@pytest.fixture()
def dying_checkpoint(monkeypatch):
    yield DyingCheckpoint(monkeypatch)


def assert_sweeps_identical(a, b):
    assert a.model_key == b.model_key
    assert np.array_equal(a.verdicts, b.verdicts)
    assert np.array_equal(a.candidate_ids, b.candidate_ids)
    assert a.n_simulated == b.n_simulated


class TestSEUGoldenRegression:
    @pytest.mark.parametrize("path", REFERENCE_PATHS)
    def test_verdicts_unchanged_by_engine_port(self, mult_hw, path, monkeypatch):
        use_reference_path(path, monkeypatch)
        result = run_campaign(mult_hw, CFG)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert result.n_candidates == 23246
        assert result.n_simulated == 555
        assert int(result.n_failures) == 270
        assert sum(result.by_kind.values()) == 270

    @pytest.mark.parametrize("path", REFERENCE_PATHS[1:])
    def test_halflatch_golden_per_path(self, mult_hw, path, monkeypatch):
        # The compiled leg is TestHalfLatchAdapter.test_golden_regression.
        use_reference_path(path, monkeypatch)
        sweep = run_halflatch_sweep(mult_hw, HL_CFG)
        assert_golden_verdicts("halflatch_verdicts", sweep.verdicts)


class TestHalfLatchAdapter:
    @pytest.fixture(scope="class")
    def serial(self, mult_hw):
        return run_halflatch_sweep(mult_hw, HL_CFG)

    def test_golden_regression(self, serial):
        assert serial.n_candidates == 1795
        assert serial.count(5) == 10  # CODE_FAIL: critical half-latch nodes
        assert_golden_verdicts("halflatch_verdicts", serial.verdicts)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_identity(self, mult_hw, serial, jobs):
        sharded = run_halflatch_sweep(mult_hw, HL_CFG, jobs=jobs)
        assert_sweeps_identical(sharded, serial)
        assert sharded.telemetry.jobs == jobs

    def test_campaign_wrapper_agrees(self, mult_hw, serial):
        from repro.seu import run_halflatch_campaign

        critical = run_halflatch_campaign(mult_hw, HL_CFG, jobs=2)
        assert sum(critical.values()) == serial.count(5)

    def test_kill_and_resume(self, mult_hw, serial, tmp_path, dying_checkpoint):
        dying_checkpoint.arm()
        full = run_halflatch_sweep(
            mult_hw, HL_CFG, jobs=3, checkpoint_path=str(tmp_path / "full.npz")
        )
        dying_checkpoint.assert_one_snapshot_per_shard(full.telemetry, serial.n_candidates)

        path = str(tmp_path / "hl.npz")
        dying_checkpoint.arm(die_after=2)
        with pytest.raises(Killed):
            run_halflatch_sweep(mult_hw, HL_CFG, jobs=3, checkpoint_path=path)
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        assert 0 < part.n_candidates < serial.n_candidates

        resumed = run_halflatch_sweep(
            mult_hw, HL_CFG, jobs=2, checkpoint_path=path, resume=True
        )
        assert_sweeps_identical(resumed, serial)
        assert_golden_verdicts("halflatch_verdicts", resumed.verdicts)


class TestMultiBitAdapter:
    @pytest.fixture(scope="class")
    def serial(self, mult_hw):
        return run_multibit_campaign(
            mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3
        )

    def test_failure_count_golden(self, serial):
        # Captured from the pre-engine nested-loop implementation.
        assert serial.n_trials == 128 and serial.n_failures == 3

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_identity(self, mult_hw, serial, jobs):
        result = run_multibit_campaign(
            mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3, jobs=jobs
        )
        assert result.n_failures == serial.n_failures
        assert result.telemetry.jobs == jobs
        assert result.telemetry.n_simulated == 128  # no pre-filter for MBU

    def test_kill_and_resume(self, mult_hw, serial, tmp_path, dying_checkpoint):
        kw = dict(k=2, n_trials=128, config=CFG, seed=3, jobs=2)
        full_path = str(tmp_path / "full.npz")
        dying_checkpoint.arm()
        full = run_multibit_campaign(mult_hw, 0.05, checkpoint_path=full_path, **kw)
        dying_checkpoint.assert_one_snapshot_per_shard(full.telemetry, serial.n_trials)

        path = str(tmp_path / "mbu.npz")
        dying_checkpoint.arm(die_after=1)
        with pytest.raises(Killed):
            run_multibit_campaign(mult_hw, 0.05, checkpoint_path=path, **kw)
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        assert 0 < part.n_candidates < serial.n_trials
        resumed = run_multibit_campaign(
            mult_hw, 0.05, checkpoint_path=path, resume=True, **kw
        )
        assert resumed.n_failures == serial.n_failures
        assert_sweeps_identical(sweepmod.load_sweep(path), sweepmod.load_sweep(full_path))


class TestResumeAtAnotherBatchSize:
    """A checkpoint written at one batch size resumes at another.

    No verdict depends on batching, so the fault-model keys a checkpoint
    is matched by leave ``batch_size`` out.
    """

    def _kill_then_resume(self, run, path, dying_checkpoint, config, **kw):
        dying_checkpoint.arm(die_after=1)
        with pytest.raises(Killed):
            run(config=config, checkpoint_path=path, **kw)
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        small = dataclasses.replace(config, batch_size=config.batch_size // 2)
        run(config=small, checkpoint_path=path, resume=True, **kw)
        return part

    def test_multibit(self, mult_hw, tmp_path, dying_checkpoint):
        def run(**kw):
            return run_multibit_campaign(mult_hw, 0.05, k=2, n_trials=128, seed=3, jobs=2, **kw)

        full_path, path = str(tmp_path / "full.npz"), str(tmp_path / "mbu.npz")
        run(config=CFG, checkpoint_path=full_path)
        part = self._kill_then_resume(run, path, dying_checkpoint, CFG)
        assert 0 < part.n_candidates < 128
        assert_sweeps_identical(sweepmod.load_sweep(path), sweepmod.load_sweep(full_path))

    def test_halflatch(self, mult_hw, tmp_path, dying_checkpoint):
        def run(**kw):
            return run_halflatch_sweep(mult_hw, jobs=3, **kw)

        full_path, path = str(tmp_path / "full.npz"), str(tmp_path / "hl.npz")
        full = run(config=HL_CFG, checkpoint_path=full_path)
        part = self._kill_then_resume(run, path, dying_checkpoint, HL_CFG)
        assert 0 < part.n_candidates < full.n_candidates
        resumed = sweepmod.load_sweep(path)
        assert_sweeps_identical(resumed, sweepmod.load_sweep(full_path))
        assert resumed.verdicts.tobytes() == full.verdicts.tobytes()
        assert_golden_verdicts("halflatch_verdicts", resumed.verdicts)


class TestBistCoverageAdapter:
    @pytest.fixture(scope="class")
    def faults(self, s8):
        spec = clb_test_design(4, register_bits=8, variant=0)
        hw = implemented_design(spec, s8.name)
        return sample_faults(hw.decoded, 40, seed=5)

    @pytest.fixture(scope="class")
    def serial(self, s8, faults):
        return run_coverage(s8, faults, cycles=96)

    def test_report_shape(self, serial, faults):
        assert serial.n_faults == len(faults)
        assert serial.n_configurations == 2
        n_listed = sum(len(v) for v in serial.detected_by.values())
        assert n_listed >= serial.n_detected  # both-variant hits listed twice
        assert serial.telemetry is not None
        assert serial.telemetry.n_candidates == len(faults)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_jobs_identity(self, s8, faults, serial, jobs):
        report = run_coverage(s8, faults, cycles=96, jobs=jobs, batch_size=16)
        assert report.detected_by == serial.detected_by
        assert report.undetected == serial.undetected
        assert report.telemetry.jobs == jobs

    def test_kill_and_resume(self, s8, faults, serial, tmp_path, dying_checkpoint):
        kw = dict(cycles=96, jobs=2, batch_size=8)
        full_path = str(tmp_path / "full.npz")
        dying_checkpoint.arm()
        full = run_coverage(s8, faults, checkpoint_path=full_path, **kw)
        dying_checkpoint.assert_one_snapshot_per_shard(full.telemetry, len(faults))

        path = str(tmp_path / "bist.npz")
        dying_checkpoint.arm(die_after=1)
        with pytest.raises(Killed):
            run_coverage(s8, faults, checkpoint_path=path, **kw)
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        assert 0 < part.n_candidates < len(faults)
        resumed = run_coverage(s8, faults, checkpoint_path=path, resume=True, **kw)
        assert resumed.detected_by == serial.detected_by
        assert resumed.undetected == serial.undetected
        assert_sweeps_identical(sweepmod.load_sweep(path), sweepmod.load_sweep(full_path))
