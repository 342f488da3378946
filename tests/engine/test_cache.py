"""The engine's per-process caches: design memo, blob store, result cache.

The load-bearing claim for the result cache is *asymmetric failure*: a
corrupted, truncated, or concurrently-clobbered entry may cost a
recompute but can never surface as a wrong value — ``get`` treats any
read or unpickle failure as a miss.  The blob-store tests pin the
worker re-request path: :class:`BlobMissing` carries the digest so a
transport worker can fetch exactly the missing blob and retry.
"""

from __future__ import annotations

import errno
import os
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

import repro.engine.cache as cache
from repro.engine.cache import (
    CACHE_STATS,
    BlobMissing,
    ResultCache,
    blob_digest,
    content_key,
    fast_forward_enabled,
    fast_forward_scope,
    install_blob,
    known_blobs,
    prime_design_cache,
    resolve_blob,
    result_cache,
    result_cache_scope,
    snapshot_stride,
)


@dataclass(frozen=True)
class _Spec:
    """Stand-in DesignSpec: picklable, distinct per name."""

    name: str


class _Device:
    def __init__(self, name: str):
        self.name = name


class _HW:
    """Minimal HardwareDesign stand-in for the design-cache tests."""

    def __init__(self, tag: str):
        self.spec = _Spec(tag)
        self.device = _Device("S8")


class TestDesignCache:
    def test_prime_then_hit_returns_same_instance(self):
        cache._HW_CACHE.clear()
        hw = _HW("prime-hit")
        prime_design_cache(hw)
        key = (pickle.dumps(hw.spec), "S8")
        assert cache._HW_CACHE[key] is hw

    def test_bounded_eviction_clears_all_at_capacity(self):
        cache._HW_CACHE.clear()
        kept = [_HW(f"d{i}") for i in range(cache._MAX_CACHED)]
        for hw in kept:
            prime_design_cache(hw)
        assert len(cache._HW_CACHE) == cache._MAX_CACHED
        # One more entry trips the clear-all eviction: the cache holds
        # exactly the newcomer, nothing stale survives partially.
        straw = _HW("straw")
        prime_design_cache(straw)
        assert len(cache._HW_CACHE) == 1
        assert next(iter(cache._HW_CACHE.values())) is straw
        cache._HW_CACHE.clear()

    def test_repriming_existing_key_is_a_noop(self):
        cache._HW_CACHE.clear()
        first, second = _HW("same"), _HW("same")
        prime_design_cache(first)
        prime_design_cache(second)
        key = (pickle.dumps(first.spec), "S8")
        assert cache._HW_CACHE[key] is first
        cache._HW_CACHE.clear()

    def test_device_name_lookup_is_case_insensitive(self):
        # get_device accepts any case; "s8" must hit the "S8" entry, not
        # implement the design a second time.
        cache._HW_CACHE.clear()
        hw = _HW("case")
        prime_design_cache(hw)
        assert cache.implemented_design(hw.spec, "s8") is hw
        cache._HW_CACHE.clear()


class TestBlobStore:
    def test_digest_round_trip(self):
        blob = b"fault-model-bytes"
        digest = install_blob(blob)
        assert digest == blob_digest(blob)
        assert digest in known_blobs()
        assert resolve_blob(digest) == blob

    def test_raw_bytes_pass_through(self):
        assert resolve_blob(b"raw") == b"raw"

    def test_missing_blob_carries_digest_for_rerequest(self, monkeypatch):
        # A private store: the blob installed below must not leak into
        # later tests that expect the same digest to be missing.
        monkeypatch.setattr(cache, "_BLOB_STORE", dict(cache._BLOB_STORE))
        missing = blob_digest(b"never-installed-blob")
        with pytest.raises(BlobMissing) as exc:
            resolve_blob(missing)
        # The worker re-request path: the exception's digest is the
        # exact content address to fetch, and installing that blob
        # makes the identical resolve succeed.
        assert exc.value.digest == missing
        install_blob(b"never-installed-blob")
        assert resolve_blob(missing) == b"never-installed-blob"


class TestContentKey:
    def test_length_prefix_prevents_aliasing(self):
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key(b"ab", b"c") != content_key(b"a", b"bc")

    def test_part_types_are_distinguished(self):
        keys = {
            content_key(None),
            content_key(0),
            content_key("0"),
            content_key(False),
        }
        assert len(keys) == 4

    def test_zero_width_arrays_key_by_shape(self):
        # A zero-input design's stimulus is (T, 0): tobytes() is b""
        # for every T, so the shape must be part of the key or golden
        # packs of different lengths collide.
        a = np.zeros((112, 0), dtype=np.uint8)
        b = np.zeros((64, 0), dtype=np.uint8)
        assert content_key(a) != content_key(b)

    def test_dtype_is_part_of_the_key(self):
        a = np.zeros(8, dtype=np.uint8)
        b = np.zeros(2, dtype=np.uint32)  # same 8 raw bytes
        assert content_key(a) != content_key(b)

    def test_numpy_arrays_key_by_content(self):
        a = np.arange(8, dtype=np.int64)
        assert content_key(a) == content_key(a.copy())
        b = a.copy()
        b[3] = 99
        assert content_key(a) != content_key(b)

    def test_deterministic(self):
        assert content_key("x", 1, None, b"y") == content_key("x", 1, None, b"y")


class TestResultCache:
    def test_round_trip_counts_hit(self, tmp_path):
        store = ResultCache(str(tmp_path))
        before = CACHE_STATS.snapshot()
        store.put("a" * 64, {"verdicts": [1, 2, 3]})
        assert store.get("a" * 64) == {"verdicts": [1, 2, 3]}
        hits, misses, nbytes = CACHE_STATS.delta(before)
        assert (hits, misses) == (1, 0)
        assert nbytes > 0

    def test_absent_key_is_a_miss(self, tmp_path):
        store = ResultCache(str(tmp_path))
        before = CACHE_STATS.snapshot()
        assert store.get("b" * 64) is None
        assert CACHE_STATS.delta(before)[:2] == (0, 1)

    def test_truncated_entry_is_a_miss_never_a_wrong_value(self, tmp_path):
        store = ResultCache(str(tmp_path))
        key = "c" * 64
        store.put(key, list(range(100)))
        path = store._path(key)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2])  # killed-writer shape
        assert store.get(key) is None

    def test_garbage_entry_is_a_miss(self, tmp_path):
        store = ResultCache(str(tmp_path))
        key = "d" * 64
        store.put(key, "fine")
        with open(store._path(key), "wb") as f:
            f.write(b"\x80\x05not really a pickle at all")
        assert store.get(key) is None

    def test_unwritable_root_degrades_to_no_cache(self, tmp_path):
        # A root whose parent is a plain file: every mkdir/open fails
        # with an OSError subclass regardless of uid.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        store = ResultCache(str(blocker / "cache"))
        store.put("e" * 64, "value")  # must not raise
        assert store.get("e" * 64) is None

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = ResultCache(str(tmp_path))
        store.put("f" * 64, np.arange(1000))
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and not p.name.endswith(".pkl")
        ]
        assert leftovers == []


class TestConcurrentWriters:
    """Racing writers on one key must never produce a torn read.

    Writers are real processes (multiple ``repro serve`` jobs and TCP
    workers share one cache directory) hammering the same key with
    large, writer-tagged payloads while readers poll; every successful
    ``get`` must be one writer's complete value, never an interleaving.
    Threads of one process race too — the tmp suffix has to be unique
    per writer, not per pid.
    """

    KEY = "ab" * 32

    @staticmethod
    def _hammer(root: str, key: str, tag: int, n: int) -> None:
        store = ResultCache(root)
        # Large enough that a write takes multiple syscall-visible
        # steps; the payload is self-consistent per writer so a torn
        # mix of two writers cannot masquerade as valid.
        payload = {"tag": tag, "data": np.full(200_000, tag, dtype=np.int64)}
        for _ in range(n):
            store.put(key, payload)

    def test_process_race_never_tears(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        root = str(tmp_path)
        writers = [
            ctx.Process(target=self._hammer, args=(root, self.KEY, tag, 20))
            for tag in (1, 2, 3)
        ]
        for proc in writers:
            proc.start()
        store = ResultCache(root)
        observed = set()
        try:
            while any(proc.is_alive() for proc in writers):
                value = store.get(self.KEY)
                if value is None:
                    continue  # not yet written, or mid-replace: a miss is fine
                assert (value["data"] == value["tag"]).all(), "torn cache read"
                observed.add(value["tag"])
        finally:
            for proc in writers:
                proc.join(timeout=60)
                assert proc.exitcode == 0
        final = store.get(self.KEY)
        assert final is not None and (final["data"] == final["tag"]).all()
        assert observed  # the readers really did race the writers

    def test_thread_race_on_one_pid_never_tears(self, tmp_path):
        import threading

        root = str(tmp_path)
        threads = [
            threading.Thread(target=self._hammer, args=(root, self.KEY, tag, 30))
            for tag in (7, 8, 9)
        ]
        for t in threads:
            t.start()
        store = ResultCache(root)
        while any(t.is_alive() for t in threads):
            value = store.get(self.KEY)
            if value is not None:
                assert (value["data"] == value["tag"]).all(), "torn cache read"
        for t in threads:
            t.join()
        final = store.get(self.KEY)
        assert final is not None and (final["data"] == final["tag"]).all()
        leftovers = [
            p
            for p in tmp_path.rglob("*")
            if p.is_file() and not p.name.endswith(".pkl")
        ]
        assert leftovers == []


class TestFailedWrite:
    """A write that fails once its temp file is open (a full disk) costs
    only the entry: the sweep still produces golden bytes, no temp file
    is left behind, the entry reads back as a miss, and stderr carries
    one note for the whole process."""

    def test_enospc_mid_write(self, mult_hw, tmp_path, monkeypatch, capsys):
        from repro.seu import CampaignConfig, run_campaign
        from tests.utils.goldens import assert_golden_verdicts

        real_open = open

        class _FullDisk:
            def __init__(self, f):
                self._f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_disk_open(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return _FullDisk(f) if "w" in mode else f

        keys = []
        real_put = ResultCache.put

        def recording_put(self, key, value):
            keys.append(key)
            real_put(self, key, value)

        monkeypatch.setattr(ResultCache, "put", recording_put)
        monkeypatch.setattr(cache, "open", full_disk_open, raising=False)
        monkeypatch.setattr(cache, "_put_failure_noted", False)
        root = tmp_path / "cache"
        config = CampaignConfig(
            detect_cycles=48, persist_cycles=32, stride=7, batch_size=32
        )
        with result_cache_scope(str(root)):
            result = run_campaign(mult_hw, config)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert keys, "the sweep never tried to store a result"
        assert list(root.rglob("*.tmp")) == []
        store = ResultCache(str(root))
        assert all(store.get(key) is None for key in keys)
        assert capsys.readouterr().err.count("result-cache write") == 1


class TestAmbientScopes:
    def test_result_cache_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert result_cache() is None

    def test_result_cache_scope_sets_and_restores(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        with result_cache_scope(str(tmp_path)):
            store = result_cache()
            assert store is not None and store.root == str(tmp_path)
            with result_cache_scope(None):  # nested disable
                assert result_cache() is None
            assert result_cache() is not None
        assert result_cache() is None

    def test_off_string_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        assert result_cache() is None

    def test_fast_forward_default_on_scope_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_FORWARD", raising=False)
        assert fast_forward_enabled()
        with fast_forward_scope(False):
            assert not fast_forward_enabled()
        assert fast_forward_enabled()

    def test_snapshot_stride_bad_values_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "not-a-number")
        assert snapshot_stride() == cache.DEFAULT_SNAPSHOT_STRIDE
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "-5")
        assert snapshot_stride() == 1
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "128")
        assert snapshot_stride() == 128


def _live_bits(hw, n: int = 24) -> tuple[int, ...]:
    """The first ``n`` stride-7 configuration bits whose upset decodes
    to a relevant fault (the correlation model's candidates)."""
    bits = []
    for bit in range(0, hw.device.block0_bits, 7):
        patch = hw.decoded.patch_for_bit(bit)
        if patch is not None and hw.decoded.patch_is_relevant(patch):
            bits.append(bit)
            if len(bits) == n:
                break
    return tuple(bits)


class TestSweepCacheAcrossBatchSizes:
    """Batch size cannot change a verdict byte, so the whole-sweep cache
    serves a repeat at another batch size; every other ``CampaignConfig``
    field still keys the sweep."""

    CFG = {
        "seu": dict(detect_cycles=48, persist_cycles=32, stride=7),
        "mbu": dict(detect_cycles=48, persist_cycles=0, classify_persistence=False),
        "halflatch": dict(detect_cycles=48, persist_cycles=0, classify_persistence=False),
        "correlation": dict(detect_cycles=48, persist_cycles=0, classify_persistence=False),
    }

    @staticmethod
    def _model(kind: str, hw, **cfg):
        from repro.seu import CampaignConfig
        from repro.seu.campaign import HalfLatchFaultModel, SEUFaultModel
        from repro.seu.correlation import CorrelationFaultModel
        from repro.seu.multibit import MBUFaultModel

        config = CampaignConfig(**cfg)
        if kind == "seu":
            return SEUFaultModel(hw.spec, hw.device.name, config)
        if kind == "mbu":
            return MBUFaultModel(hw.spec, hw.device.name, config, 2, 64, 3)
        if kind == "correlation":
            return CorrelationFaultModel(hw.spec, hw.device.name, config, _live_bits(hw))
        return HalfLatchFaultModel(hw.spec, hw.device.name, config)

    @pytest.mark.parametrize("kind", ["seu", "mbu", "halflatch", "correlation"])
    def test_repeat_at_another_batch_size_is_a_sweep_hit(self, mult_hw, tmp_path, kind):
        from repro.engine import run_serial

        with result_cache_scope(str(tmp_path / "cache")):
            cold_model = self._model(kind, mult_hw, batch_size=32, **self.CFG[kind])
            cold = run_serial(cold_model, batch_size=32)
            warm_model = self._model(kind, mult_hw, batch_size=16, **self.CFG[kind])
            warm = run_serial(warm_model, batch_size=16)
        assert cold.telemetry.cache_hits == 0
        # One lookup, served: the whole sweep came from the store.
        assert (warm.telemetry.cache_hits, warm.telemetry.cache_misses) == (1, 0)
        assert warm.verdicts.tobytes() == cold.verdicts.tobytes()
        assert np.array_equal(warm.candidate_ids, cold.candidate_ids)

    @pytest.mark.parametrize("kind", ["seu", "mbu", "halflatch", "correlation"])
    def test_every_other_field_keys_the_sweep(self, mult_hw, kind):
        import dataclasses

        from repro.engine.sweep import _sweep_cache_key
        from repro.seu import CampaignConfig

        def key(**cfg):
            model = self._model(kind, mult_hw, **cfg)
            return _sweep_cache_key(model, pickle.dumps(model), np.arange(8))

        base = dict(self.CFG[kind], batch_size=32)
        assert key(**dict(base, batch_size=7)) == key(**base)
        for f in dataclasses.fields(CampaignConfig):
            if f.name == "batch_size":
                continue
            value = base.get(f.name, f.default)
            other = (not value) if isinstance(value, bool) else value + 1
            assert key(**dict(base, **{f.name: other})) != key(**base), f.name
