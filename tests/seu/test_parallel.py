"""Sharded campaign engine: jobs=N is byte-identical to jobs=1.

The determinism contract (chunking aligned to whole simulator batches)
is what makes the parallel engine trustworthy: any worker count, any
shard interleaving, and any kill/resume sequence must converge to the
same verdicts array the serial loop produces.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future

import numpy as np
import pytest

import repro.engine.sweep as sweepmod
from repro.engine import load_sweep, merge_sweeps, run_sweep, shard_survivors
from repro.seu import (
    CampaignConfig,
    run_campaign,
    resume_campaign,
)
from repro.seu.campaign import SEUFaultModel, _from_sweep

# Small batches so the ~500 simulated bits of MULT4/S8 span many
# simulator batches and several shards per worker.
CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


class InlineExecutor(Executor):
    """Run submissions synchronously in-process.

    Exercises the sharding/merge/checkpoint logic deterministically and
    without process start-up cost; the worker functions are the same
    ones a ProcessPoolExecutor would run.
    """

    def submit(self, fn, /, *args, **kwargs):
        f: Future = Future()
        try:
            f.set_result(fn(*args, **kwargs))
        except BaseException as err:  # noqa: BLE001 - forwarded via the future
            f.set_exception(err)
        return f


class Killed(Exception):
    pass


@pytest.fixture(scope="module")
def full_checkpoint(tmp_path_factory):
    """Path of the complete checkpoint ``full_result`` leaves behind."""
    return str(tmp_path_factory.mktemp("full") / "mult.npz")


@pytest.fixture(scope="module")
def full_result(mult_hw, full_checkpoint):
    return run_campaign(mult_hw, CFG, checkpoint_path=full_checkpoint)


def assert_identical(a, b):
    assert np.array_equal(a.verdicts, b.verdicts)
    assert np.array_equal(a.candidate_bits, b.candidate_bits)
    assert a.n_candidates == b.n_candidates
    assert a.n_simulated == b.n_simulated
    assert a.by_kind == b.by_kind


class TestParallelIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_processpool_byte_identical(self, mult_hw, full_result, jobs):
        """The acceptance criterion: real worker processes, any N."""
        result = run_campaign(mult_hw, CFG, jobs=jobs)
        assert_identical(result, full_result)

    def test_jobs1_delegates_to_serial(self, mult_hw, full_result):
        result = run_campaign(mult_hw, CFG, jobs=1)
        assert_identical(result, full_result)

    def test_inline_executor_identity(self, mult_hw, full_result):
        result = run_campaign(
            mult_hw, CFG, jobs=3, executor=InlineExecutor(), shards_per_job=2
        )
        assert_identical(result, full_result)

    def test_rejects_bad_jobs(self, mult_hw):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            run_campaign(mult_hw, CFG, jobs=0)

    def test_telemetry_emitted(self, mult_hw, full_result):
        result = run_campaign(
            mult_hw, CFG, jobs=2, executor=InlineExecutor()
        )
        t = result.telemetry
        assert t is not None and t.jobs == 2
        assert t.n_candidates == full_result.n_candidates
        assert t.n_simulated == full_result.n_simulated
        assert t.n_skipped + t.n_simulated == t.n_candidates
        assert t.wall_seconds > 0 and t.bits_per_sec > 0 and t.us_per_bit > 0
        assert 0.5 < t.skip_rate < 1.0
        d = t.to_dict()
        assert {"bits_per_sec", "us_per_bit", "skip_rate", "jobs"} <= set(d)


class TestShardInvariants:
    def test_equal_contiguous_cuts(self):
        survivors = np.arange(10 * 32 + 7)
        shards = shard_survivors(survivors, 4)
        assert np.array_equal(np.concatenate(shards), survivors)
        sizes = [s.size for s in shards]
        assert len(shards) == 4 and max(sizes) - min(sizes) <= 1

    def test_more_shards_than_survivors(self):
        survivors = np.arange(5)
        shards = shard_survivors(survivors, 16)
        assert np.array_equal(np.concatenate(shards), survivors)
        assert [s.size for s in shards] == [1] * 5

    def test_empty_survivors(self):
        assert shard_survivors(np.empty(0, np.int64), 4) == []


class TestMergeOrderIndependence:
    def test_merge_any_order(self, mult_hw, full_result):
        bits = full_result.candidate_bits
        cuts = [0, bits.size // 3, 2 * bits.size // 3, bits.size]
        model = SEUFaultModel(mult_hw.spec, mult_hw.device.name, CFG)
        parts = [
            run_sweep(model, candidates=bits[a:b]) for a, b in zip(cuts[:-1], cuts[1:])
        ]
        ab = _from_sweep(mult_hw, CFG, merge_sweeps(parts))
        ba = _from_sweep(mult_hw, CFG, merge_sweeps(parts[::-1]))
        assert_identical(ab, ba)
        assert_identical(ab, full_result)


class TestParallelResume:
    def _killed_run(self, mult_hw, path, monkeypatch, die_after):
        """Run a checkpointed parallel sweep whose parent dies after
        ``die_after`` checkpoint writes."""
        real_save = sweepmod.save_sweep
        calls = {"n": 0}

        def dying_save(sweep, p):
            calls["n"] += 1
            if calls["n"] > die_after:
                raise Killed()
            real_save(sweep, p)

        monkeypatch.setattr(sweepmod, "save_sweep", dying_save)
        with pytest.raises(Killed):
            run_campaign(
                mult_hw,
                CFG,
                jobs=3,
                checkpoint_path=path,
                executor=InlineExecutor(),
                shards_per_job=2,
            )
        monkeypatch.setattr(sweepmod, "save_sweep", real_save)

    @pytest.mark.parametrize("die_after", [1, 3])
    def test_kill_and_resume_identical(
        self, mult_hw, full_result, tmp_path, monkeypatch, die_after
    ):
        path = str(tmp_path / f"par{die_after}.npz")
        self._killed_run(mult_hw, path, monkeypatch, die_after)
        part = load_sweep(path)
        assert 0 < part.n_candidates < full_result.n_candidates

        resumed = resume_campaign(
            mult_hw, path, jobs=3, executor=InlineExecutor(), shards_per_job=2
        )
        assert_identical(resumed, full_result)

    def test_parallel_resumes_serial_checkpoint(
        self, mult_hw, full_result, tmp_path, monkeypatch
    ):
        """Serial and parallel runs share one checkpoint format — and
        one batch-grouping invariant."""
        import repro.netlist.simulator as simmod

        path = str(tmp_path / "serial.npz")
        orig = simmod.BatchSimulator.run_verdicts
        calls = {"n": 0}

        def dying(self, *a, **k):
            calls["n"] += 1
            if calls["n"] > 2:
                raise Killed()
            return orig(self, *a, **k)

        monkeypatch.setattr(simmod.BatchSimulator, "run_verdicts", dying)
        with pytest.raises(Killed):
            run_campaign(mult_hw, CFG, checkpoint_path=path, checkpoint_every=1)
        monkeypatch.setattr(simmod.BatchSimulator, "run_verdicts", orig)

        part = load_sweep(path)
        assert 0 < part.n_candidates < full_result.n_candidates
        resumed = resume_campaign(
            mult_hw, path, jobs=2, executor=InlineExecutor()
        )
        assert_identical(resumed, full_result)

    def test_resume_of_complete_run_returns_checkpoint(
        self, mult_hw, full_result, tmp_path
    ):
        path = str(tmp_path / "done.npz")
        run_campaign(
            mult_hw, CFG, jobs=2, checkpoint_path=path, executor=InlineExecutor()
        )
        resumed = resume_campaign(mult_hw, path, jobs=2)
        assert_identical(resumed, full_result)
        assert resumed.n_simulated == full_result.n_simulated  # nothing re-run

    def test_wrong_design_rejected(self, lfsr_hw, full_result, full_checkpoint):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError, match="is for"):
            resume_campaign(lfsr_hw, full_checkpoint)
