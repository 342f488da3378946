"""Unit tests for the frame protocol, blob store and connection chaos.

Everything here runs in-process (socketpairs, no subprocesses): the
frame codec must round-trip arbitrary payloads, fail loudly on a
desynchronised stream, and the content-addressed blob store must give
workers a one-shot model upload with an explicit miss signal.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import numpy as np
import pytest

import repro.engine.cache as cache
from repro.engine.cache import (
    BlobMissing,
    blob_digest,
    install_blob,
    install_blobs,
    known_blobs,
    resolve_blob,
)
from repro.engine.chaos import ChaosPolicy
from repro.engine.transport import (
    MAX_FRAME,
    FrameConn,
    FrameError,
    RemoteTaskError,
    pack_error,
    parse_hostport,
    unpack_error,
)
from repro.errors import CampaignError


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    ca, cb = FrameConn(a), FrameConn(b)
    yield ca, cb
    ca.close()
    cb.close()


class TestFrameCodec:
    def test_roundtrip_simple(self, pair):
        a, b = pair
        a.send({"t": "hello", "worker": "w0", "blobs": ()})
        msg = b.recv(timeout=5.0)
        assert msg == {"t": "hello", "worker": "w0", "blobs": ()}

    def test_roundtrip_numpy_payload(self, pair):
        a, b = pair
        shard = np.arange(1000, dtype=np.int64)
        a.send({"t": "task", "args": (shard,), "sid": 7})
        msg = b.recv(timeout=5.0)
        assert msg["sid"] == 7
        np.testing.assert_array_equal(msg["args"][0], shard)

    def test_many_frames_stay_in_sync(self, pair):
        a, b = pair
        for i in range(50):
            a.send({"t": "hb", "i": i, "pad": b"x" * (i * 37)})
        for i in range(50):
            assert b.recv(timeout=5.0)["i"] == i

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert b.recv(timeout=5.0) is None

    def test_timeout_waiting_for_frame_start(self, pair):
        _, b = pair
        with pytest.raises(TimeoutError):
            b.recv(timeout=0.05)

    def test_truncated_frame_is_fatal(self, pair):
        a, b = pair
        payload = pickle.dumps({"t": "task"})
        # Announce a full frame but deliver half of it, then hang up.
        a.sock.sendall(struct.pack("!I", len(payload)) + payload[: len(payload) // 2])
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            b.recv(timeout=5.0)

    def test_oversized_announcement_rejected(self, pair):
        a, b = pair
        a.sock.sendall(struct.pack("!I", MAX_FRAME + 1))
        with pytest.raises(FrameError, match="oversized"):
            b.recv(timeout=5.0)

    def test_untyped_payload_rejected(self, pair):
        a, b = pair
        payload = pickle.dumps(["not", "a", "dict"])
        a.sock.sendall(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(FrameError, match="malformed"):
            b.recv(timeout=5.0)

    def test_concurrent_senders_do_not_interleave(self, pair):
        a, b = pair
        n_threads, n_each = 4, 25

        def blast(tid: int) -> None:
            for i in range(n_each):
                a.send({"t": "hb", "tid": tid, "i": i, "pad": b"y" * 512})

        threads = [threading.Thread(target=blast, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        got = [b.recv(timeout=5.0) for _ in range(n_threads * n_each)]
        for th in threads:
            th.join()
        # Every frame arrives intact (no torn headers); per-sender order holds.
        per_tid: dict[int, list[int]] = {}
        for msg in got:
            per_tid.setdefault(msg["tid"], []).append(msg["i"])
        assert all(seq == sorted(seq) for seq in per_tid.values())


class TestAddressParsing:
    def test_host_and_port(self):
        assert parse_hostport("10.0.0.5:4321") == ("10.0.0.5", 4321)

    def test_bare_host_gets_default(self):
        assert parse_hostport("myhost", default_port=7777) == ("myhost", 7777)

    def test_empty_host_is_loopback(self):
        assert parse_hostport(":9000") == ("127.0.0.1", 9000)

    def test_garbage_port_raises(self):
        with pytest.raises(CampaignError, match="bad address"):
            parse_hostport("host:notaport")


class TestErrorPacking:
    def test_picklable_error_roundtrips_genuine_type(self):
        err = unpack_error(pack_error(ValueError("boom")))
        assert isinstance(err, ValueError)
        assert "boom" in str(err)

    def test_campaign_error_survives(self):
        err = unpack_error(pack_error(CampaignError("shard poisoned")))
        assert isinstance(err, CampaignError)

    def test_unpicklable_error_degrades_to_repr(self):
        class Evil(Exception):
            def __reduce__(self):
                raise TypeError("nope")

        payload = pack_error(Evil("hidden"))
        assert "pickled" not in payload
        err = unpack_error(payload)
        assert isinstance(err, RemoteTaskError)
        assert "Evil" in str(err)

    def test_corrupt_pickle_degrades_to_repr(self):
        err = unpack_error({"pickled": b"garbage", "repr": "X()"})
        assert isinstance(err, RemoteTaskError)


class TestBlobStore:
    def test_install_and_resolve(self):
        blob = b"model-bytes-" + bytes(64)
        digest = install_blob(blob)
        assert digest == blob_digest(blob)
        assert resolve_blob(digest) == blob
        assert digest in known_blobs()

    def test_raw_bytes_pass_through(self):
        assert resolve_blob(b"raw") == b"raw"

    def test_missing_digest_names_itself(self):
        missing = blob_digest(b"never-installed-blob")
        with pytest.raises(BlobMissing) as exc:
            resolve_blob(missing)
        assert exc.value.digest == missing
        assert isinstance(exc.value, CampaignError)

    def test_bulk_install(self):
        # From one below capacity: a batch must not evict its own members.
        cache._BLOB_STORE.clear()
        for i in range(cache._MAX_BLOBS - 1):
            install_blob(b"filler-%d" % i)
        blobs = {blob_digest(b): b for b in (b"one", b"two")}
        install_blobs(blobs)
        for digest, blob in blobs.items():
            assert resolve_blob(digest) == blob


class TestConnectionChaosKinds:
    def test_parse_accepts_connection_knobs(self):
        chaos = ChaosPolicy.parse(
            "seed=5,drop=0.2,partition=0.1,partition-s=2,slowlink=0.3,slowlink-s=0.4"
        )
        assert chaos.drop == 0.2
        assert chaos.partition == 0.1
        assert chaos.partition_s == 2.0
        assert chaos.slowlink == 0.3
        assert chaos.slowlink_s == 0.4

    def test_decide_can_return_every_connection_kind(self):
        for kind in ("drop", "partition", "slowlink"):
            chaos = ChaosPolicy(seed=1, **{kind: 1.0})
            assert chaos.decide("k", 0) == kind
            assert chaos.decide("k", 1) is None  # launches cap holds

    def test_precedence_crash_beats_connection_kinds(self):
        chaos = ChaosPolicy(seed=1, crash=1.0, drop=1.0, partition=1.0, slowlink=1.0)
        assert chaos.decide("k", 0) == "crash"

    def test_drop_beats_partition_beats_slowlink(self):
        assert ChaosPolicy(seed=1, drop=1.0, partition=1.0).decide("k", 0) == "drop"
        assert (
            ChaosPolicy(seed=1, partition=1.0, slowlink=1.0).decide("k", 0)
            == "partition"
        )

    def test_probability_validation_covers_new_kinds(self):
        for field in ("drop", "partition", "slowlink"):
            with pytest.raises(CampaignError, match="probability"):
                ChaosPolicy(**{field: 1.5})
        with pytest.raises(CampaignError, match="durations"):
            ChaosPolicy(partition_s=-1.0)

    def test_schedule_is_deterministic(self):
        chaos = ChaosPolicy(seed=9, drop=0.5, slowlink=0.5)
        decisions = [chaos.decide(f"t:{i}", 0) for i in range(32)]
        assert decisions == [chaos.decide(f"t:{i}", 0) for i in range(32)]
        assert any(d == "drop" for d in decisions)
