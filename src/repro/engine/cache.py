"""Per-process caches shared by every fault model and executor backend.

Four caches live here:

* The **implemented-design cache**.  Implementing a design (place +
  route + bitgen + decode) is the expensive part of a fault model's
  :meth:`~repro.engine.model.FaultModel.build_context`; several models
  over the same (design, device) — or the same model under several
  configs — must not pay for it repeatedly inside one worker process.
  Under a ``fork`` start method the parent primes the cache
  (:func:`prime_design_cache`) so children inherit the implemented
  design copy-on-write and re-derive nothing.  Keyed by the pickled
  DesignSpec (names alone do not identify scaled suite variants built
  with non-default keyword arguments).  Bounded so a long-lived pool
  sweeping many designs cannot hoard implementations.

* The **content-addressed blob store**.  Executor backends ship the
  pickled fault model to workers exactly once per worker process —
  local pools via the pool initializer (and fork copy-on-write), the
  TCP backend via a one-time upload on worker hello — and every
  :class:`~repro.engine.executor.TaskSpec` carries only the blob's
  SHA-256 digest.  :func:`resolve_blob` is the worker-side lookup; it
  also accepts raw ``bytes`` unchanged so external pools (synchronous
  test executors) that never primed a store keep their historical
  ship-the-blob semantics.

* The **content-addressed result cache** (:class:`ResultCache`): a
  disk-backed store of finished sweep verdicts and per-shard worker
  results, keyed by SHA-256 over everything that determines the bytes
  (model blob digest, candidate ids, engine flags — see
  :func:`content_key`).  A corrupted or truncated entry is
  indistinguishable from a miss — the reader unpickles inside a
  blanket except and recomputes — so the cache can accelerate but
  never change a verdict.  A write that fails (a full disk) removes its
  temp file, leaves the entry a miss and notes it once per process on
  stderr.  The ambient directory is env-scoped
  (``REPRO_RESULT_CACHE``) so forked *and* spawned workers, and
  distributed ``repro worker`` processes with their own local
  directory, all consult a store before simulating.

* The **golden-pack store**: fast-forward keeps each design's golden
  trace (outputs, address rows, and stride state snapshots) in a
  bounded in-process memo plus, when a result-cache directory is
  ambient, on disk — so every context build after the first skips the
  full-stimulus golden simulation and restores the nearest snapshot
  instead (``REPRO_FAST_FORWARD`` / ``REPRO_SNAPSHOT_STRIDE``).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import sys
import threading
import uuid
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import CampaignError
from repro.place import flow
from repro.place.flow import HardwareDesign

__all__ = [
    "implemented_design",
    "prime_design_cache",
    "BlobMissing",
    "blob_digest",
    "install_blob",
    "install_blobs",
    "known_blobs",
    "resolve_blob",
    "CacheStats",
    "CACHE_STATS",
    "ResultCache",
    "content_key",
    "result_cache",
    "result_cache_scope",
    "fast_forward_enabled",
    "fast_forward_scope",
    "snapshot_stride",
    "cached_golden_pack",
    "store_golden_pack",
]


class BlobMissing(CampaignError):
    """A task referenced a content address this process has not installed.

    Carries the digest so a transport worker can request exactly the
    missing blob and retry, instead of failing the shard.
    """

    def __init__(self, digest: str):
        super().__init__(
            f"blob {digest[:12]}… not installed in this process "
            f"(worker started without priming?)"
        )
        self.digest = digest

_MAX_CACHED = 4
_HW_CACHE: dict[tuple[bytes, str], HardwareDesign] = {}


def implemented_design(spec, device_name: str) -> HardwareDesign:
    """Implement ``spec`` on ``device_name``, memoized per process."""
    from repro.fpga import get_device

    device = get_device(device_name)  # canonical name: "s12" keys as "S12"
    key = (pickle.dumps(spec), device.name)
    hw = _HW_CACHE.get(key)
    if hw is None:
        if len(_HW_CACHE) >= _MAX_CACHED:
            _HW_CACHE.clear()
        hw = flow.implement(spec, device)
        _HW_CACHE[key] = hw
    return hw


def prime_design_cache(hw: HardwareDesign) -> None:
    """Seed the cache with an already-implemented design.

    Adapters that hold a :class:`HardwareDesign` call this before
    handing its model to the engine, so the parent (and, under fork,
    every worker) reuses the instance instead of re-implementing.
    """
    key = (pickle.dumps(hw.spec), hw.device.name)
    if key not in _HW_CACHE:
        if len(_HW_CACHE) >= _MAX_CACHED:
            _HW_CACHE.clear()
        _HW_CACHE[key] = hw


# -- content-addressed blob store ----------------------------------------------

_MAX_BLOBS = 8
_BLOB_STORE: dict[str, bytes] = {}


def blob_digest(blob: bytes) -> str:
    """The content address of ``blob`` (hex SHA-256)."""
    return hashlib.sha256(blob).hexdigest()


def install_blob(blob: bytes) -> str:
    """Store ``blob`` under its content address; return the digest."""
    digest = blob_digest(blob)
    if digest not in _BLOB_STORE:
        if len(_BLOB_STORE) >= _MAX_BLOBS:
            _BLOB_STORE.clear()
        _BLOB_STORE[digest] = blob
    return digest


def install_blobs(blobs: dict[str, bytes]) -> None:
    """Bulk-install pre-addressed blobs (pool initializer entry point)."""
    for blob in blobs.values():
        install_blob(blob)


def known_blobs() -> tuple[str, ...]:
    """Digests already present in this process (worker hello payload)."""
    return tuple(_BLOB_STORE)


def resolve_blob(ref: str | bytes) -> bytes:
    """Dereference a blob: a digest hits the store, raw bytes pass through."""
    if isinstance(ref, bytes):
        return ref
    blob = _BLOB_STORE.get(ref)
    if blob is None:
        raise BlobMissing(ref)
    return blob


# -- content-addressed result cache --------------------------------------------

_ENV_CACHE_DIR = "REPRO_RESULT_CACHE"
_ENV_FAST_FORWARD = "REPRO_FAST_FORWARD"
_ENV_SNAPSHOT_STRIDE = "REPRO_SNAPSHOT_STRIDE"

#: default golden-snapshot spacing (cycles); the expected residual
#: replay is stride/2, so this trades snapshot memory against replay
DEFAULT_SNAPSHOT_STRIDE = 64


@dataclass
class CacheStats:
    """Process-global result-cache counters, snapshot/diffed like
    :class:`~repro.netlist.simulator.KernelCounters` so sweeps fold the
    per-run delta into :class:`~repro.engine.telemetry.CampaignTelemetry`."""

    hits: int = 0
    misses: int = 0
    bytes: int = 0  # pickled bytes served from cache hits

    def snapshot(self) -> tuple[int, int, int]:
        return (self.hits, self.misses, self.bytes)

    def delta(self, since: tuple[int, int, int]) -> tuple[int, int, int]:
        now = self.snapshot()
        return (now[0] - since[0], now[1] - since[1], now[2] - since[2])


CACHE_STATS = CacheStats()


def content_key(*parts: Any) -> str:
    """SHA-256 over a canonical encoding of heterogeneous key parts.

    Accepts ``bytes``, ``str``, ``int``, ``bool``, ``None`` and objects
    with ``tobytes()`` (numpy arrays); every part is length-prefixed so
    adjacent parts cannot alias.
    """
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            enc = b"\x00"
        elif isinstance(part, bytes):
            enc = part
        elif isinstance(part, (str, int, bool)):
            enc = repr(part).encode()
        elif hasattr(part, "tobytes"):
            # Raw bytes alone lose the array's geometry: a (112, 0)
            # stimulus and a (64, 0) one both serialize to b"" (any
            # zero-input design), so the shape/dtype header is part of
            # the content.
            header = repr((getattr(part, "shape", None), str(getattr(part, "dtype", "")))).encode()
            enc = header + part.tobytes()
        else:
            enc = pickle.dumps(part)
        h.update(str(len(enc)).encode())
        h.update(b":")
        h.update(enc)
    return h.hexdigest()


class ResultCache:
    """Disk-backed content-addressed store of pickled results.

    Entries live at ``root/<k[:2]>/<k>.pkl``; writes are atomic (tmp
    file + rename) so a killed run never leaves a truncated entry a
    later run could trust, and *any* read or unpickle failure is a miss
    — corruption can cost a recompute, never a wrong verdict.
    """

    def __init__(self, root: str):
        self.root = str(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key: str) -> Any | None:
        try:
            with open(self._path(key), "rb") as f:
                blob = f.read()
            value = pickle.loads(blob)
        except Exception:
            CACHE_STATS.misses += 1
            return None
        CACHE_STATS.hits += 1
        CACHE_STATS.bytes += len(blob)
        return value

    def put(self, key: str, value: Any) -> None:
        path = self._path(key)
        tmp = None
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            blob = pickle.dumps(value)
            # The suffix must be unique per *writer*, not just per
            # process: two threads of one pid racing the same key would
            # otherwise interleave writes into one tmp file and rename
            # a torn blob into place.
            tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.{uuid.uuid4().hex[:8]}.tmp"
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, path)
        except OSError as exc:
            # A full or read-only cache disk degrades to "no cache": the
            # entry stays a miss and its partial temp file is removed.
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            _note_put_failure(self.root, exc)


_put_failure_noted = False


def _note_put_failure(root: str, exc: OSError) -> None:
    """One stderr note per process when a cache write fails."""
    global _put_failure_noted
    if not _put_failure_noted:
        _put_failure_noted = True
        print(
            f"repro: result-cache write under {root} failed ({exc}); "
            f"affected entries stay uncached",
            file=sys.stderr,
        )


def result_cache() -> ResultCache | None:
    """The ambient result cache, or None when caching is off.

    Resolved from ``REPRO_RESULT_CACHE`` at every call so forked and
    spawned workers (which inherit the environment) and scope changes
    all see the same decision.
    """
    raw = os.environ.get(_ENV_CACHE_DIR, "").strip()
    if not raw or raw.lower() == "off":
        return None
    return ResultCache(raw)


@contextlib.contextmanager
def _env_scope(var: str, value: str) -> Iterator[None]:
    # Exported via the environment (not a module global) so fork *and*
    # spawn workers — and `repro worker` children — inherit the scope.
    prev = os.environ.get(var)
    os.environ[var] = value
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = prev


@contextlib.contextmanager
def result_cache_scope(path: str | None) -> Iterator[None]:
    """Scope the ambient result-cache directory (None/'off' disables)."""
    with _env_scope(_ENV_CACHE_DIR, path if path else "off"):
        yield


def fast_forward_enabled() -> bool:
    """Ambient golden-prefix fast-forward toggle (default: on)."""
    return os.environ.get(_ENV_FAST_FORWARD, "1").strip().lower() not in (
        "0",
        "off",
        "false",
    )


def snapshot_stride() -> int:
    """Ambient golden-snapshot stride in cycles (>= 1)."""
    try:
        stride = int(os.environ.get(_ENV_SNAPSHOT_STRIDE, DEFAULT_SNAPSHOT_STRIDE))
    except ValueError:
        stride = DEFAULT_SNAPSHOT_STRIDE
    return max(1, stride)


@contextlib.contextmanager
def fast_forward_scope(enabled: bool, stride: int | None = None) -> Iterator[None]:
    """Scope the fast-forward toggle (and optionally the stride)."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(_env_scope(_ENV_FAST_FORWARD, "1" if enabled else "0"))
        if stride is not None:
            stack.enter_context(_env_scope(_ENV_SNAPSHOT_STRIDE, str(stride)))
        yield


# -- golden-pack store ---------------------------------------------------------

_MAX_PACKS = 4
_PACK_MEMO: dict[str, Any] = {}


def cached_golden_pack(key: str) -> Any | None:
    """A previously stored golden pack: in-process memo, then disk."""
    pack = _PACK_MEMO.get(key)
    if pack is not None:
        return pack
    store = result_cache()
    if store is None:
        return None
    pack = store.get("golden-" + key)
    if pack is not None:
        if len(_PACK_MEMO) >= _MAX_PACKS:
            _PACK_MEMO.clear()
        _PACK_MEMO[key] = pack
    return pack


def store_golden_pack(key: str, pack: Any) -> None:
    """Memoize a golden pack (and persist it when a cache dir is ambient)."""
    if len(_PACK_MEMO) >= _MAX_PACKS:
        _PACK_MEMO.clear()
    _PACK_MEMO[key] = pack
    store = result_cache()
    if store is not None:
        store.put("golden-" + key, pack)
