"""One sweep driver for every ``jobs``: in-process runs, snapshots, patches.

``jobs=1`` runs the same pre-filter → observe task list a pool runs, but
in this process: the pre-filter's survivor patches are reused instead of
re-derived, a caller's context replaces the context build, and a model
exception propagates on its first raise.  Snapshot counts follow
``checkpoint_every`` for every ``jobs`` and the complete result is
written exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import pytest

import repro.engine.sweep as sweepmod
from repro.engine import (
    CODE_NOT_TESTED,
    load_sweep,
    run_serial,
    run_sweep,
)
from tests.engine.test_engine import InlineExecutor, Killed, ToyModel, assert_identical

# In-process call accounting, reset per test by the `spy` fixture.
SPY: dict[str, Any] = {"contexts": 0, "patched": [], "observed": 0}


@dataclass(frozen=True)
class SpyModel(ToyModel):
    """ToyModel whose even survivors carry their patch as the payload."""

    name: ClassVar[str] = "toy-spy"

    def key(self) -> str:
        return f"toy-spy:{self.n}"

    def build_context(self) -> Any:
        SPY["contexts"] += 1
        return "built"

    def prefilter(self, candidate: int, ctx) -> tuple[int, Any]:
        code, _ = super().prefilter(candidate, ctx)
        if code == CODE_NOT_TESTED and candidate % 2 == 0:
            return code, candidate
        return code, None

    def patch_for(self, candidate: int, ctx) -> int:
        SPY["patched"].append(candidate)
        return candidate


class NaiveSpyModel(SpyModel):
    collapsible: ClassVar[bool] = False


class NaiveToyModel(ToyModel):
    """ToyModel (same key) on the engine's path that simulates every survivor."""

    collapsible: ClassVar[bool] = False


@dataclass(frozen=True)
class FailingModel(ToyModel):
    """ToyModel whose simulator raises on every batch."""

    name: ClassVar[str] = "toy-failing"

    def key(self) -> str:
        return f"toy-failing:{self.n}"

    def observe_batch(self, ctx, pending) -> list[int]:
        SPY["observed"] += 1
        raise Killed()


@pytest.fixture()
def spy():
    SPY.update(contexts=0, patched=[], observed=0)
    return SPY


@pytest.fixture(scope="module")
def serial_result():
    return run_serial(ToyModel(), batch_size=16)


def _survivors(model: ToyModel) -> list[int]:
    return [c for c in range(model.n) if model.prefilter(c, None)[0] == CODE_NOT_TESTED]


class TestInProcess:
    @pytest.mark.parametrize("model_cls", [SpyModel, NaiveSpyModel])
    def test_prefilter_payload_never_reaches_patch_for(self, spy, serial_result, model_cls):
        result = run_serial(model_cls(), batch_size=16)
        assert np.array_equal(result.verdicts, serial_result.verdicts)
        payloadless = [c for c in _survivors(SpyModel()) if c % 2]
        assert sorted(spy["patched"]) == payloadless  # each exactly once
        assert spy["contexts"] == 1

    def test_context_skips_build_context(self, spy, serial_result):
        result = run_serial(SpyModel(), batch_size=16, context="given")
        assert spy["contexts"] == 0
        assert np.array_equal(result.verdicts, serial_result.verdicts)

    def test_parked_patches_do_not_outlive_the_sweep(self, spy):
        before = set(sweepmod._MODEL_STATE)
        run_serial(SpyModel(), batch_size=16)
        assert set(sweepmod._MODEL_STATE) == before

    def test_pool_workers_rederive_patches(self, spy, serial_result):
        result = run_sweep(NaiveSpyModel(), jobs=2, batch_size=16, executor=InlineExecutor())
        assert np.array_equal(result.verdicts, serial_result.verdicts)
        # The pre-filter derives each payloadless survivor's patch for its
        # settle key; the observe phase re-derives every survivor's.
        payloadless = [c for c in _survivors(SpyModel()) if c % 2]
        assert sorted(spy["patched"]) == sorted(_survivors(SpyModel()) + payloadless)

    def test_model_exception_propagates_without_retry(self, spy):
        with pytest.raises(Killed):
            run_serial(FailingModel(), batch_size=16)
        assert spy["observed"] == 1


def _snapshot_sizes(monkeypatch, path, model_cls=ToyModel, **kw) -> list[int]:
    """``n_candidates`` of every snapshot one sweep writes."""
    sizes: list[int] = []
    real_save = sweepmod.save_sweep

    def counting_save(sweep, p):
        sizes.append(sweep.n_candidates)
        real_save(sweep, p)

    monkeypatch.setattr(sweepmod, "save_sweep", counting_save)
    run_sweep(model_cls(), batch_size=16, checkpoint_path=path, **kw)
    monkeypatch.setattr(sweepmod, "save_sweep", real_save)
    return sizes


POOL = dict(jobs=2, executor=InlineExecutor(), shards_per_job=1)


class TestSnapshots:
    # Pool completions arrive in any order; naive shards fold one by one,
    # so their snapshot count does not depend on it.
    def test_checkpoint_every_honoured_under_a_pool(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.npz")
        default = _snapshot_sizes(monkeypatch, path, NaiveToyModel, **POOL)
        fine = _snapshot_sizes(monkeypatch, path, NaiveToyModel, checkpoint_every=16, **POOL)
        assert len(fine) > len(default)

    @pytest.mark.parametrize("model_cls", [ToyModel, NaiveToyModel])
    def test_checkpoint_every_honoured_in_process(self, tmp_path, monkeypatch, model_cls):
        path = str(tmp_path / "ck.npz")
        default = _snapshot_sizes(monkeypatch, path, model_cls)
        fine = _snapshot_sizes(monkeypatch, path, model_cls, checkpoint_every=16)
        assert len(fine) > len(default)

    @pytest.mark.parametrize("model_cls", [ToyModel, NaiveToyModel])
    @pytest.mark.parametrize("kw", [POOL, {}], ids=["pool", "in-process"])
    def test_complete_result_written_once(self, tmp_path, monkeypatch, model_cls, kw):
        sizes = _snapshot_sizes(
            monkeypatch, str(tmp_path / "ck.npz"), model_cls, checkpoint_every=16, **kw
        )
        assert sizes.count(ToyModel().n) == 1 and sizes[-1] == ToyModel().n
        assert sizes == sorted(sizes)

    def test_in_process_small_sweep_writes_only_the_result(self, tmp_path, monkeypatch):
        sizes = _snapshot_sizes(monkeypatch, str(tmp_path / "ck.npz"))
        assert sizes == [ToyModel().n]

    @pytest.mark.parametrize("die_after", [2, 5])
    @pytest.mark.parametrize("resume_jobs", [1, 2])
    def test_kill_after_kth_snapshot_resumes_identically(
        self, serial_result, tmp_path, monkeypatch, die_after, resume_jobs
    ):
        path = str(tmp_path / "ck.npz")
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
                NaiveToyModel(), batch_size=16, checkpoint_path=path, checkpoint_every=16,
                **POOL,
            )
        monkeypatch.setattr(sweepmod, "save_sweep", real_save)
        part = load_sweep(path)
        assert 0 < part.n_candidates < serial_result.n_candidates
        resumed = run_sweep(
            ToyModel(), checkpoint_path=path, resume=True,
            jobs=resume_jobs, batch_size=16, checkpoint_every=16,
            executor=InlineExecutor() if resume_jobs > 1 else None,
        )
        assert_identical(resumed, serial_result)
