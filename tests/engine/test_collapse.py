"""Fault collapsing in the engine: fewer simulations, identical verdicts.

A toy model whose batch parameter is derived from its batch's settle
keys probes the collapse driver directly: duplicate-patch candidates
must share one simulation, every batch must hold a single settle key
(so each verdict is its batch-of-one verdict), and every jobs/
kill-resume combination must produce the byte-identical sweep of the
naive path: the same model with ``collapsible = False``, which
simulates every survivor.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import pytest

import repro.engine.sweep as sweepmod
from repro.engine import (
    CODE_NOT_TESTED,
    CODE_SKIP_STRUCTURAL,
    FaultModel,
    load_sweep,
    run_serial,
    run_sharded,
    run_sweep,
)
from repro.engine.model import default_patch_signature
from repro.netlist.compiled import Patch

# In-process call accounting (works for serial runs and InlineExecutor
# sharded runs; reset per test via the `calls` fixture).
CALLS: dict[str, Any] = {"entries": 0, "batch_keys": []}


@dataclass(frozen=True)
class CollapsingToyModel(FaultModel):
    """Observation = f(patch, batch parameter); patches repeat (c % n_classes).

    Mirrors the real kernels' settle-pass hazard: ``observe_batch``
    derives its parameter from the whole batch (one plus the largest
    settle key in it), so a verdict equals its batch-of-one verdict only
    because the engine never batches different keys together.  As for
    the real models, the key is a function of the patch.
    """

    n: int = 200
    n_classes: int = 6
    keyed: bool = False

    name: ClassVar[str] = "toy-collapse"

    def key(self) -> str:
        return f"toy-collapse:{self.n}:{self.n_classes}:{self.keyed}"

    def space_size(self) -> int:
        return self.n

    def enumerate_candidates(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def build_context(self) -> Any:
        return None

    def prefilter(self, candidate: int, ctx) -> tuple[int, Any]:
        if candidate % 11 == 0:
            return CODE_SKIP_STRUCTURAL, None
        return CODE_NOT_TESTED, None

    def patch_for(self, candidate: int, ctx) -> int:
        return candidate % self.n_classes

    def collapse_salt_datum(self, candidate: int, ctx, patch: int) -> int:
        return patch % 3 if self.keyed else 0

    def observe_batch(self, ctx, pending) -> list[int]:
        keys = {self.collapse_salt_datum(c, ctx, p) for c, p in pending}
        CALLS["entries"] += len(pending)
        CALLS["batch_keys"].append(keys)
        return [(p * 7 + 1 + max(keys)) % 5 for _, p in pending]

    def classify(self, observation: int) -> int:
        return 4 + observation


@dataclass(frozen=True)
class OpaqueToyModel(CollapsingToyModel):
    """Half the candidates have no signature: they must simulate naively."""

    name: ClassVar[str] = "toy-opaque"

    def key(self) -> str:
        return f"toy-opaque:{self.n}"

    def collapse_signature(self, candidate: int, ctx, patch) -> Any:
        return None if candidate % 2 else ("raw", patch)


@dataclass(frozen=True)
class PayloadCollapseModel(CollapsingToyModel):
    """Collapsing model retaining a per-candidate payload array."""

    name: ClassVar[str] = "toy-collapse-payload"

    def key(self) -> str:
        return f"toy-collapse-payload:{self.n}:{self.n_classes}"

    def payload(self, observation: int) -> np.ndarray:
        return np.array([observation, observation * 2], dtype=np.uint8)


# The naive references: the same models (and keys) with collapsing
# opted out, so the engine simulates every survivor.


class NaiveToyModel(CollapsingToyModel):
    collapsible: ClassVar[bool] = False


class NaiveOpaqueToyModel(OpaqueToyModel):
    collapsible: ClassVar[bool] = False


class NaivePayloadModel(PayloadCollapseModel):
    collapsible: ClassVar[bool] = False


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


@pytest.fixture()
def calls():
    CALLS.update(entries=0, batch_keys=[])
    return CALLS


def assert_identical(a, b):
    assert a.model_key == b.model_key
    assert np.array_equal(a.verdicts, b.verdicts)
    assert np.array_equal(a.candidate_ids, b.candidate_ids)
    assert a.n_simulated == b.n_simulated


class TestDefaultSignature:
    def test_patch_and_containers(self):
        p = Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])
        q = Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])
        assert default_patch_signature(p) == default_patch_signature(q)
        assert default_patch_signature((p, q)) == default_patch_signature((q, p))
        assert default_patch_signature(None) is None
        assert default_patch_signature((p, None)) is None
        assert default_patch_signature(3) == ("raw", 3)
        assert default_patch_signature(object()) is None


class TestSerialCollapse:
    def test_identity_and_fewer_simulations(self, calls):
        naive = run_serial(NaiveToyModel(), batch_size=16)
        n_naive = calls["entries"]
        calls.update(entries=0)
        collapsed = run_serial(CollapsingToyModel(), batch_size=16)
        assert_identical(collapsed, naive)
        # Only n_classes distinct patches exist: nearly every survivor
        # rides along as a follower.
        assert calls["entries"] < n_naive / 4
        assert collapsed.telemetry.n_collapsed > 0
        assert collapsed.telemetry.collapse_rate > 0.5
        # The naive path simulates every survivor itself.
        assert n_naive == naive.n_simulated
        assert naive.telemetry.n_collapsed == 0

    @pytest.mark.parametrize("model_cls", [CollapsingToyModel, NaiveToyModel])
    def test_batches_hold_one_settle_key(self, calls, model_cls):
        alone = run_serial(NaiveToyModel(keyed=True), batch_size=1)
        calls.update(batch_keys=[])
        batched = run_serial(model_cls(keyed=True), batch_size=16)
        assert_identical(batched, alone)
        assert all(len(keys) == 1 for keys in calls["batch_keys"])
        assert len(set().union(*calls["batch_keys"])) == 3

    def test_opaque_candidates_simulate_naively(self, calls):
        naive = run_serial(NaiveOpaqueToyModel(), batch_size=16)
        calls.update(entries=0)
        collapsed = run_serial(OpaqueToyModel(), batch_size=16)
        assert_identical(collapsed, naive)
        # The signature-less half still went through a real simulation.
        assert calls["entries"] >= naive.n_simulated // 2

    def test_payload_fanned_out_to_followers(self):
        naive = run_serial(NaivePayloadModel(), batch_size=16)
        collapsed = run_serial(PayloadCollapseModel(), batch_size=16)
        assert collapsed.payloads.keys() == naive.payloads.keys()
        for cand, val in naive.payloads.items():
            assert np.array_equal(val, collapsed.payloads[cand])
        # Follower payloads are independent copies, not shared views.
        ids = sorted(collapsed.payloads)
        collapsed.payloads[ids[0]][0] ^= 1
        same_class = [
            i for i in ids[1:]
            if (i % 6) == (ids[0] % 6) and np.array_equal(
                naive.payloads[i], naive.payloads[ids[0]]
            )
        ]
        if same_class:
            assert np.array_equal(
                collapsed.payloads[same_class[0]], naive.payloads[same_class[0]]
            )


class TestShardedCollapse:
    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_identity(self, jobs, keyed, calls):
        model = CollapsingToyModel(keyed=keyed)
        serial = run_serial(model, batch_size=16)
        sharded = run_sharded(
            model, jobs=jobs, batch_size=16, executor=InlineExecutor(), shards_per_job=2
        )
        assert_identical(sharded, serial)
        assert sharded.telemetry.n_collapsed == serial.telemetry.n_collapsed

    def test_sharded_collapse_vs_naive(self):
        naive = run_sharded(
            NaiveToyModel(), jobs=2, batch_size=16, executor=InlineExecutor()
        )
        collapsed = run_sharded(
            CollapsingToyModel(), jobs=2, batch_size=16, executor=InlineExecutor()
        )
        assert_identical(collapsed, naive)
        assert collapsed.telemetry.n_collapsed > 0


class TestResumeUnderCollapse:
    def _killed_run(self, monkeypatch, path, die_after, **kw):
        real_save = sweepmod.save_sweep
        counter = {"n": 0}

        def dying_save(sweep, p):
            counter["n"] += 1
            if counter["n"] > die_after:
                raise Killed()
            real_save(sweep, p)

        monkeypatch.setattr(sweepmod, "save_sweep", dying_save)
        with pytest.raises(Killed):
            run_sweep(CollapsingToyModel(keyed=True), checkpoint_path=path, **kw)
        monkeypatch.setattr(sweepmod, "save_sweep", real_save)

    def test_serial_kill_and_resume(self, tmp_path, monkeypatch):
        serial = run_serial(CollapsingToyModel(keyed=True), batch_size=16)
        path = str(tmp_path / "collapse.npz")
        self._killed_run(
            monkeypatch, path, die_after=2, batch_size=16, checkpoint_every=32
        )
        part = load_sweep(path)
        assert 0 < part.n_candidates < serial.n_candidates
        resumed = run_sweep(
            CollapsingToyModel(keyed=True), checkpoint_path=path, resume=True, batch_size=16
        )
        assert_identical(resumed, serial)

    @pytest.mark.parametrize("resume_cls", [CollapsingToyModel, NaiveToyModel])
    def test_sharded_kill_and_resume_either_path(self, tmp_path, monkeypatch, resume_cls):
        """A collapsed checkpoint resumes on the collapsing and the naive path."""
        serial = run_serial(CollapsingToyModel(keyed=True), batch_size=16)
        path = str(tmp_path / f"collapse-{resume_cls.__name__}.npz")
        self._killed_run(
            monkeypatch, path, die_after=1, jobs=3,
            executor=InlineExecutor(), shards_per_job=2, batch_size=16,
        )
        part = load_sweep(path)
        assert 0 < part.n_candidates < serial.n_candidates
        resumed = run_sweep(
            resume_cls(keyed=True), checkpoint_path=path, resume=True,
            jobs=2, batch_size=16, executor=InlineExecutor(),
        )
        assert_identical(resumed, serial)
