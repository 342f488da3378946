"""One sweep driver for every ``jobs``: in-process runs, snapshots, patches.

``jobs=1`` runs the same pre-filter → observe task list a pool runs, but
in this process: a caller's context replaces the context build, and a
model exception propagates on its first raise.  On every path a
survivor's patch is derived once, by its pre-filter task, and travels to
the observe phase with it.  Snapshot counts follow ``checkpoint_every``
for every ``jobs`` and the complete result is written exactly once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import pytest

import repro.engine.cache as cache
import repro.engine.sweep as sweepmod
from repro.engine import (
    CODE_NOT_TESTED,
    load_sweep,
    run_serial,
    run_sweep,
)
from repro.engine.cache import ResultCache, result_cache_scope
from tests.engine.test_engine import InlineExecutor, Killed, ToyModel, assert_identical

# In-process call accounting, reset per test by the `spy` fixture.
SPY: dict[str, Any] = {"contexts": 0, "observed": 0}


@dataclass(frozen=True)
class SpyModel(ToyModel):
    """ToyModel whose even survivors carry their patch as the payload.

    Every :meth:`patch_for` call appends its candidate to the file
    ``log``, from whichever process makes it.
    """

    log: str = ""

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
        with open(self.log, "a") as f:
            f.write(f"{candidate}\n")
        return candidate


@dataclass(frozen=True)
class LoggedPatch:
    """A patch that logs the pid of every process that unpickles it."""

    candidate: int
    log: str

    def __reduce__(self):
        return _unpickle_logged, (self.candidate, self.log)


def _unpickle_logged(candidate: int, log: str) -> LoggedPatch:
    with open(log, "a") as f:
        f.write(f"{os.getpid()}\n")
    return LoggedPatch(candidate, log)


@dataclass(frozen=True)
class UnpickleSpyModel(ToyModel):
    """ToyModel whose patches are :class:`LoggedPatch` objects."""

    log: str = ""

    name: ClassVar[str] = "toy-unpickle-spy"

    def key(self) -> str:
        return f"toy-unpickle-spy:{self.n}"

    def patch_for(self, candidate: int, ctx) -> LoggedPatch:
        return LoggedPatch(candidate, self.log)


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
    SPY.update(contexts=0, observed=0)
    return SPY


@pytest.fixture(scope="module")
def serial_result():
    return run_serial(ToyModel(), batch_size=16)


def _survivors(model: ToyModel) -> list[int]:
    return [c for c in range(model.n) if model.prefilter(c, None)[0] == CODE_NOT_TESTED]


def _patched(log) -> list[int]:
    """The candidates :meth:`SpyModel.patch_for` ran on, sorted."""
    return sorted(int(c) for c in log.read_text().split()) if log.exists() else []


def _record_kinds(monkeypatch) -> dict[str, str]:
    """Map every result-store key the sweep driver builds to its kind."""
    kinds: dict[str, str] = {}
    real_key = sweepmod.content_key

    def recording_key(kind, *parts):
        key = real_key(kind, *parts)
        kinds[key] = kind
        return key

    monkeypatch.setattr(sweepmod, "content_key", recording_key)
    return kinds


#: survivors the spy pre-filter gives no payload
PAYLOADLESS = [c for c in _survivors(SpyModel()) if c % 2]

PATHS = {
    "in-process": {},
    "inline-pool": dict(jobs=2, executor=InlineExecutor()),
    "local-pool": dict(jobs=2),
}


class TestPatchesDerivedOnce:
    """``patch_for`` runs once per survivor the pre-filter gave no
    payload, and never for one it did, whatever the path."""

    @pytest.mark.parametrize("model_cls", [SpyModel, NaiveSpyModel])
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_once_per_payloadless_survivor(
        self, spy, tmp_path, serial_result, model_cls, path
    ):
        log = tmp_path / "patched.log"
        result = run_sweep(model_cls(log=str(log)), batch_size=16, **PATHS[path])
        assert np.array_equal(result.verdicts, serial_result.verdicts)
        assert _patched(log) == PAYLOADLESS
        assert spy["contexts"] == 1

    def test_patches_are_unpickled_only_where_simulated(self, tmp_path, serial_result):
        """Under a real pool each survivor's patch is unpickled once, in
        the worker that simulates it; the parent forwards it undecoded."""
        log = tmp_path / "unpickled.log"
        result = run_sweep(UnpickleSpyModel(log=str(log)), batch_size=16, **PATHS["local-pool"])
        assert np.array_equal(result.verdicts, serial_result.verdicts)
        pids = log.read_text().split()
        assert len(pids) == len(_survivors(ToyModel()))
        assert str(os.getpid()) not in pids

    @pytest.mark.parametrize("path", ["in-process", "inline-pool"])
    def test_stored_prefilter_serves_every_patch(self, tmp_path, monkeypatch, path):
        """With the sweep and observe entries gone, a re-run served from
        the stored pre-filter entries derives no patch at all."""
        log = tmp_path / "patched.log"
        kinds = _record_kinds(monkeypatch)
        model = SpyModel(log=str(log))
        root = str(tmp_path / "store")
        with result_cache_scope(root):
            cold = run_sweep(model, batch_size=16, **PATHS[path])
            for key, kind in kinds.items():
                if kind != "prefilter":
                    os.remove(ResultCache(root)._path(key))
            log.write_text("")
            warm = run_sweep(model, batch_size=16, **PATHS[path])
        assert_identical(warm, cold)
        assert warm.telemetry.cache_hits == sum(k == "prefilter" for k in kinds.values())
        assert _patched(log) == []

    @pytest.mark.parametrize("model_cls", [SpyModel, NaiveSpyModel])
    def test_patchless_prefilter_entries_miss(self, tmp_path, monkeypatch, model_cls):
        """A store written before pre-filter entries carried patches
        (semantics 1: ``(signature, settle key)`` per survivor) serves
        this build nothing: the re-run misses, never unpacks them."""
        kinds = _record_kinds(monkeypatch)
        model = model_cls(log=str(tmp_path / "patched.log"))
        root = str(tmp_path / "store")
        store = ResultCache(root)
        current = cache.VERDICT_SEMANTICS
        monkeypatch.setattr(cache, "VERDICT_SEMANTICS", 1)
        with result_cache_scope(root):
            cold = run_sweep(model, batch_size=16)
            for key, kind in kinds.items():
                if kind != "prefilter":
                    os.remove(store._path(key))
                    continue
                codes, info, seconds = store.get(key)
                store.put(key, (codes, [(sig, settle) for sig, settle, _ in info], seconds))
            monkeypatch.setattr(cache, "VERDICT_SEMANTICS", current)
            warm = run_sweep(model, batch_size=16)
        assert_identical(warm, cold)
        assert warm.telemetry.cache_hits == 0


class TestInProcess:
    def test_context_skips_build_context(self, spy, tmp_path, serial_result):
        model = SpyModel(log=str(tmp_path / "patched.log"))
        result = run_serial(model, batch_size=16, context="given")
        assert spy["contexts"] == 0
        assert np.array_equal(result.verdicts, serial_result.verdicts)

    def test_model_state_does_not_outlive_the_sweep(self, spy, tmp_path):
        before = set(sweepmod._MODEL_STATE)
        run_serial(SpyModel(log=str(tmp_path / "patched.log")), batch_size=16)
        assert set(sweepmod._MODEL_STATE) == before

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
