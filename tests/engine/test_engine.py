"""The generic campaign engine, exercised with a cheap toy fault model.

The contract under test is fault-model-agnostic: serial and sharded
drivers produce byte-identical verdicts, checkpoints cut only at whole
batches, merges reject overlap, and payloads/telemetry survive a
save/load round trip.  A pure-arithmetic model keeps each case fast and
lets the suite probe edge shapes (empty space, all-skipped, payload
stacking) the real adapters cannot reach cheaply.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import pytest

import repro.engine.sweep as sweepmod
from repro.engine import (
    CODE_FAIL,
    CODE_NO_EFFECT,
    CODE_NOT_TESTED,
    CODE_SKIP_CONE,
    CODE_SKIP_STRUCTURAL,
    FaultModel,
    load_sweep,
    merge_sweeps,
    run_serial,
    run_sharded,
    run_sweep,
    save_sweep,
    shard_survivors,
)
from repro.errors import CampaignError


@dataclass(frozen=True)
class ToyModel(FaultModel):
    """Arithmetic stand-in: candidate i fails iff ``(i * 7) % 3 == 0``.

    Every fifth candidate is structurally skipped and every fifth-plus-one
    is cone-skipped, so the pre-filter path is exercised too.  Picklable
    (module-level frozen dataclass), as the sharded driver requires.
    """

    n: int = 200

    name: ClassVar[str] = "toy"

    def key(self) -> str:
        return f"toy:{self.n}"

    def space_size(self) -> int:
        return self.n

    def enumerate_candidates(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def build_context(self) -> Any:
        return None

    def prefilter(self, candidate: int, ctx) -> tuple[int, Any]:
        if candidate % 5 == 0:
            return CODE_SKIP_STRUCTURAL, None
        if candidate % 5 == 1:
            return CODE_SKIP_CONE, None
        return CODE_NOT_TESTED, None

    def patch_for(self, candidate: int, ctx) -> int:
        return candidate

    def observe_batch(self, ctx, pending) -> list[int]:
        return [(c * 7) % 3 for c, _ in pending]

    def classify(self, observation: int) -> int:
        return CODE_FAIL if observation == 0 else CODE_NO_EFFECT


@dataclass(frozen=True)
class PayloadModel(ToyModel):
    """Toy model that retains a small per-candidate observation array."""

    name: ClassVar[str] = "toy-payload"

    def key(self) -> str:
        return f"toy-payload:{self.n}"

    def observe_batch(self, ctx, pending) -> list[np.ndarray]:
        return [np.array([c % 3, c % 7], dtype=np.uint8) for c, _ in pending]

    def classify(self, observation: np.ndarray) -> int:
        return CODE_FAIL if observation[0] == 0 else CODE_NO_EFFECT

    def payload(self, observation: np.ndarray) -> np.ndarray:
        return observation


class InlineExecutor(Executor):
    """Run submissions synchronously in-process (deterministic, no pool)."""

    def submit(self, fn, /, *args, **kwargs):
        f: Future = Future()
        try:
            f.set_result(fn(*args, **kwargs))
        except BaseException as err:  # noqa: BLE001 - forwarded via the future
            f.set_exception(err)
        return f


class Killed(Exception):
    pass


def assert_identical(a, b):
    assert a.model_key == b.model_key
    assert np.array_equal(a.verdicts, b.verdicts)
    assert np.array_equal(a.candidate_ids, b.candidate_ids)
    assert a.n_simulated == b.n_simulated


@pytest.fixture(scope="module")
def serial_result():
    return run_serial(ToyModel(), batch_size=16)


class TestSerial:
    def test_verdict_codes(self, serial_result):
        model = ToyModel()
        v = serial_result.verdicts
        for i in range(model.n):
            if i % 5 == 0:
                assert v[i] == CODE_SKIP_STRUCTURAL
            elif i % 5 == 1:
                assert v[i] == CODE_SKIP_CONE
            elif (i * 7) % 3 == 0:
                assert v[i] == CODE_FAIL
            else:
                assert v[i] == CODE_NO_EFFECT
        assert serial_result.count(CODE_FAIL) == int(
            np.count_nonzero(v == CODE_FAIL)
        )
        assert np.array_equal(
            serial_result.ids_with(CODE_SKIP_CONE), np.flatnonzero(v == CODE_SKIP_CONE)
        )

    def test_telemetry(self, serial_result):
        t = serial_result.telemetry
        assert t is not None and t.jobs == 1
        assert t.n_candidates == 200
        assert t.n_simulated == serial_result.n_simulated
        assert t.n_skipped + t.n_simulated == t.n_candidates
        assert t.skip_structural == 40 and t.skip_cone == 40
        assert t.wall_seconds > 0
        d = t.to_dict()
        assert {"bits_per_sec", "us_per_bit", "skip_rate", "jobs"} <= set(d)

    def test_candidate_subset(self):
        subset = np.arange(10, 50, dtype=np.int64)
        result = run_serial(ToyModel(), batch_size=16, candidates=subset)
        assert np.array_equal(result.candidate_ids, subset)
        # Untouched ids stay NOT_TESTED.
        assert result.verdicts[0] == CODE_NOT_TESTED
        assert result.verdicts[199] == CODE_NOT_TESTED

    def test_empty_candidates(self):
        result = run_serial(ToyModel(), candidates=np.empty(0, dtype=np.int64))
        assert result.n_candidates == 0 and result.n_simulated == 0


class TestShardedIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_processpool(self, serial_result, jobs):
        result = run_sharded(ToyModel(), jobs=jobs, batch_size=16)
        assert_identical(result, serial_result)

    def test_inline_executor(self, serial_result):
        result = run_sharded(
            ToyModel(), jobs=3, batch_size=16, executor=InlineExecutor(),
            shards_per_job=2,
        )
        assert_identical(result, serial_result)
        assert result.telemetry.jobs == 3

    def test_jobs1_delegates_to_serial(self, serial_result):
        result = run_sharded(ToyModel(), jobs=1, batch_size=16)
        assert_identical(result, serial_result)
        assert result.telemetry.jobs == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(CampaignError):
            run_sharded(ToyModel(), jobs=0)

    def test_payloads_cross_process(self):
        serial = run_serial(PayloadModel(), batch_size=16)
        sharded = run_sharded(PayloadModel(), jobs=2, batch_size=16)
        assert serial.payloads.keys() == sharded.payloads.keys()
        for cand, val in serial.payloads.items():
            assert np.array_equal(val, sharded.payloads[cand])


class TestShardInvariants:
    def test_equal_contiguous_cuts(self):
        survivors = np.arange(10 * 32 + 7)
        shards = shard_survivors(survivors, 4)
        assert np.array_equal(np.concatenate(shards), survivors)
        sizes = [s.size for s in shards]
        assert len(shards) == 4 and max(sizes) - min(sizes) <= 1

    def test_empty(self):
        assert shard_survivors(np.empty(0, np.int64), 4) == []


class TestMerge:
    def test_order_independent(self, serial_result):
        ids = serial_result.candidate_ids
        cuts = [0, ids.size // 3, 2 * ids.size // 3, ids.size]
        parts = [
            run_serial(ToyModel(), batch_size=16, candidates=ids[a:b])
            for a, b in zip(cuts[:-1], cuts[1:])
        ]
        ab = merge_sweeps(parts)
        ba = merge_sweeps(parts[::-1])
        assert_identical(ab, ba)
        assert np.array_equal(ab.candidate_ids, ids)

    def test_rejects_overlap(self):
        a = run_serial(ToyModel(), candidates=np.arange(0, 60, dtype=np.int64))
        b = run_serial(ToyModel(), candidates=np.arange(50, 100, dtype=np.int64))
        with pytest.raises(CampaignError, match="overlap"):
            merge_sweeps([a, b])

    def test_rejects_model_mismatch(self):
        a = run_serial(ToyModel(), candidates=np.arange(0, 50, dtype=np.int64))
        b = run_serial(ToyModel(n=300), candidates=np.arange(50, 100, dtype=np.int64))
        with pytest.raises(CampaignError, match="different models"):
            merge_sweeps([a, b])

    def test_rejects_empty(self):
        with pytest.raises(CampaignError):
            merge_sweeps([])


class TestPersistence:
    def test_round_trip(self, serial_result, tmp_path):
        path = str(tmp_path / "toy.npz")
        save_sweep(serial_result, path)
        loaded = load_sweep(path)
        assert_identical(loaded, serial_result)
        t = loaded.telemetry
        assert t is not None and t.n_candidates == 200

    def test_round_trip_payloads(self, tmp_path):
        result = run_serial(PayloadModel(), batch_size=16)
        path = str(tmp_path / "payload.npz")
        save_sweep(result, path)
        loaded = load_sweep(path)
        assert loaded.payloads.keys() == result.payloads.keys()
        for cand, val in result.payloads.items():
            assert np.array_equal(val, loaded.payloads[cand])

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot load"):
            load_sweep(str(tmp_path / "absent.npz"))


class TestResume:
    def _killed_run(self, monkeypatch, path, die_after, jobs=1, **kw):
        real_save = sweepmod.save_sweep
        calls = {"n": 0}

        def dying_save(sweep, p):
            calls["n"] += 1
            if calls["n"] > die_after:
                raise Killed()
            real_save(sweep, p)

        monkeypatch.setattr(sweepmod, "save_sweep", dying_save)
        with pytest.raises(Killed):
            run_sweep(
                ToyModel(), jobs=jobs, batch_size=16, checkpoint_path=path, **kw
            )
        monkeypatch.setattr(sweepmod, "save_sweep", real_save)

    def test_serial_kill_and_resume(self, serial_result, tmp_path, monkeypatch):
        path = str(tmp_path / "ser.npz")
        self._killed_run(monkeypatch, path, die_after=2, checkpoint_every=32)
        part = load_sweep(path)
        assert 0 < part.n_candidates < serial_result.n_candidates
        resumed = run_sweep(ToyModel(), checkpoint_path=path, resume=True, batch_size=16)
        assert_identical(resumed, serial_result)

    @pytest.mark.parametrize("resume_jobs", [1, 2])
    def test_sharded_kill_serial_or_sharded_resume(
        self, serial_result, tmp_path, monkeypatch, resume_jobs
    ):
        """Serial and sharded runs share one checkpoint format."""
        path = str(tmp_path / f"shard{resume_jobs}.npz")
        self._killed_run(
            monkeypatch, path, die_after=2, jobs=3,
            executor=InlineExecutor(), shards_per_job=2,
        )
        part = load_sweep(path)
        assert 0 < part.n_candidates < serial_result.n_candidates
        resumed = run_sweep(
            ToyModel(), checkpoint_path=path, resume=True, jobs=resume_jobs, batch_size=16,
            executor=InlineExecutor() if resume_jobs > 1 else None,
        )
        assert_identical(resumed, serial_result)

    def test_resume_of_complete_run(self, serial_result, tmp_path):
        path = str(tmp_path / "done.npz")
        run_sweep(ToyModel(), batch_size=16, checkpoint_path=path)
        resumed = run_sweep(ToyModel(), checkpoint_path=path, resume=True, batch_size=16)
        assert_identical(resumed, serial_result)

    def test_wrong_model_rejected(self, tmp_path):
        path = str(tmp_path / "toy.npz")
        run_sweep(ToyModel(), batch_size=16, checkpoint_path=path)
        with pytest.raises(CampaignError, match="is for"):
            run_sweep(ToyModel(n=300), checkpoint_path=path, resume=True)

    def test_resume_needs_an_existing_checkpoint(self, tmp_path):
        with pytest.raises(CampaignError, match="^resume requires a checkpoint path$"):
            run_sweep(ToyModel(), resume=True)
        with pytest.raises(CampaignError, match="cannot load"):
            run_sweep(ToyModel(), checkpoint_path=str(tmp_path / "absent.npz"), resume=True)
