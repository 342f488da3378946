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

from concurrent.futures import Executor, Future

import numpy as np
import pytest

import repro.engine.sweep as sweepmod
from repro.bist.coverage import run_coverage
from repro.bist.faults import sample_faults
from repro.bist.patterns import clb_test_design
from repro.engine.cache import implemented_design
from repro.netlist.backends import kernel_backend
from repro.seu import (
    CampaignConfig,
    run_campaign,
    run_halflatch_sweep,
    run_multibit_campaign,
)
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

    The kill tests below run their dying sweep pooled but with
    ``collapse=False``: a naive shard folds on its own, so a run with S
    observe shards writes exactly S - 1 snapshots before the final save
    in any shard completion order.  Under collapse the snapshot count
    depends on which shard finishes first (the resolved prefix may jump
    straight to the end), so "die after N" could land on the final save
    or never fire.  The resume runs with the default ``collapse=True``;
    collapsed kill/resume paths are pinned order-deterministically in
    ``tests/engine/test_collapse.py``.
    """

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._real_save = sweepmod.save_sweep

    def arm(self, die_after: int) -> None:
        calls = {"n": 0}
        real_save = self._real_save

        def dying_save(sweep, path):
            calls["n"] += 1
            if calls["n"] > die_after:
                raise Killed()
            real_save(sweep, path)

        self._monkeypatch.setattr(sweepmod, "save_sweep", dying_save)

    def disarm(self) -> None:
        self._monkeypatch.setattr(sweepmod, "save_sweep", self._real_save)


@pytest.fixture()
def dying_checkpoint(monkeypatch):
    yield DyingCheckpoint(monkeypatch)


def assert_sweeps_identical(a, b):
    assert a.model_key == b.model_key
    assert np.array_equal(a.verdicts, b.verdicts)
    assert np.array_equal(a.candidate_ids, b.candidate_ids)
    assert a.n_simulated == b.n_simulated


BACKEND_PARAMS = [
    pytest.param("reference", id="reference"),
    pytest.param("bitplane", id="bitplane"),
]


class TestSEUGoldenRegression:
    @pytest.mark.parametrize("backend", BACKEND_PARAMS)
    def test_verdicts_unchanged_by_engine_port(self, mult_hw, backend):
        with kernel_backend(backend):
            result = run_campaign(mult_hw, CFG)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert result.n_candidates == 23246
        assert result.n_simulated == 555
        assert int(result.n_failures) == 270
        assert sum(result.by_kind.values()) == 270
        assert result.telemetry.backend == backend

    @pytest.mark.parametrize("backend", BACKEND_PARAMS[1:])
    def test_halflatch_golden_per_backend(self, mult_hw, backend):
        # The reference leg is TestHalfLatchAdapter.test_golden_regression.
        with kernel_backend(backend):
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
        path = str(tmp_path / "hl.npz")
        dying_checkpoint.arm(die_after=2)
        with pytest.raises(Killed):
            run_halflatch_sweep(
                mult_hw, HL_CFG, jobs=3, checkpoint_path=path, collapse=False
            )
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        assert 0 < part.n_candidates < serial.n_candidates

        resumed = run_halflatch_sweep(
            mult_hw, HL_CFG, jobs=2, checkpoint_path=path, resume=True
        )
        assert_sweeps_identical(resumed, serial)


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
        path = str(tmp_path / "mbu.npz")
        dying_checkpoint.arm(die_after=1)
        with pytest.raises(Killed):
            run_multibit_campaign(
                mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3,
                jobs=2, checkpoint_path=path, collapse=False,
            )
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        assert 0 < part.n_candidates < serial.n_trials
        resumed = run_multibit_campaign(
            mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3,
            jobs=2, checkpoint_path=path, resume=True,
        )
        assert resumed.n_failures == serial.n_failures


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
        path = str(tmp_path / "bist.npz")
        dying_checkpoint.arm(die_after=1)
        with pytest.raises(Killed):
            run_coverage(
                s8, faults, cycles=96, jobs=2, batch_size=8, checkpoint_path=path,
                collapse=False,
            )
        dying_checkpoint.disarm()
        part = sweepmod.load_sweep(path)
        assert 0 < part.n_candidates < len(faults)
        resumed = run_coverage(
            s8, faults, cycles=96, jobs=2, batch_size=8,
            checkpoint_path=path, resume=True,
        )
        assert resumed.detected_by == serial.detected_by
        assert resumed.undetected == serial.undetected
