"""The generic campaign driver: one two-phase sweep for every ``jobs``.

Lifted from the single-bit SEU engine (``repro.seu.campaign``) and
generalised over :class:`~repro.engine.model.FaultModel`, so every
fault class gets the same machinery.  :func:`run_sharded` is the only
driver; ``jobs=1`` runs the very same task list in-process, in order,
with no executor, pickling or retry (a deterministic exception simply
propagates), and :func:`run_serial` is a ``jobs=1`` alias.

**Determinism contract.**  Every verdict is a property of its candidate
alone, as in a single-bit inject/observe/repair loop: the simulator
derives batch-level parameters (the settle-pass count) from the batch,
so the driver only batches survivors whose settle keys
(:meth:`FaultModel.collapse_salt_datum`) are equal, and a batch's
parameters are then each member's own.  ``jobs``, ``batch_size``, the
shard cuts and the candidate order cannot change a byte.  The driver
runs in two phases:

1. **Pre-filter** — candidates are split into contiguous chunks and
   each chunk is classified by :meth:`FaultModel.prefilter_chunk` (in
   parallel under a pool; the pre-filter is a pure per-candidate
   function, so any split is safe).  Each survivor comes back with its
   ``(signature, settle key, patch)``, in candidate order: the patch is
   derived once, here, and travels with its survivor as data (under a
   pool, pickled once by this worker and decoded only by the one that
   simulates it).
2. **Observe** — survivors are stable-sorted by settle key and cut into
   equal contiguous shards; each shard carries its survivors' patches
   and runs batches of at most ``batch_size`` survivors of one key.

**Checkpoint/resume.** The driver snapshots after the pre-filter
(under a pool) and then as observe shards complete, in any order;
``checkpoint_every`` (survivors per snapshot) sets the shard count,
raised to ``jobs * shards_per_job`` when a pool exists, and the
complete result is written once at the end.  Archives store the done
candidates as a packed bitmask over the verdict space
(:func:`encode_done`).  Since no verdict depends
on which candidates share a batch, any resolved subset is a valid
snapshot and a killed sweep resumes to the byte-identical result under
any worker count.

**Fault collapsing.** Candidates whose patches configure identical
hardware produce identical observations.  For a
:attr:`~repro.engine.model.FaultModel.collapsible` model the parent
keeps the first survivor of every signature class as its
*representative*, simulates only representatives, and fans each
observation out to the class's followers; a finished shard folds its
representatives and their followers together.  Verdicts are
byte-identical to simulating every survivor (the path a model that is
not collapsible takes) for any ``jobs``.

Workers derive the model context **once per process** and cache it;
under ``fork`` the parent pre-populates the cache so children inherit
it copy-on-write.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

import numpy as np

from repro.errors import CampaignError
from repro.engine.cache import (
    CACHE_STATS,
    blob_digest,
    content_key,
    resolve_blob,
    result_cache,
)
from repro.engine.model import (
    CODE_NOT_TESTED,
    CODE_SKIP_CONE,
    CODE_SKIP_STRUCTURAL,
    CODE_SKIP_UNADDRESSED,
    FaultModel,
)
from repro.engine.executor import (
    ShardExecutor,
    TaskSpec,
    get_executor_policy,
)
from repro.engine.telemetry import CampaignTelemetry
from repro.netlist.simulator import KERNEL_COUNTERS
from repro.obs import get_observer

# Emit a kernel-counter sample into the trace every this many simulator
# batches (traced runs only).
_COUNTER_SAMPLE_BATCHES = 16

__all__ = [
    "SweepResult",
    "run_serial",
    "run_sharded",
    "run_sweep",
    "merge_sweeps",
    "save_sweep",
    "load_sweep",
    "shard_survivors",
    "default_jobs",
]


def default_jobs() -> int:
    """CPU-count-aware default worker count.

    Respects the process's CPU affinity mask where the platform exposes
    it (``os.sched_getaffinity``), so a cgroup/container-limited run —
    CI pinned to 2 cores on a 64-core host — shards for the CPUs it may
    actually use instead of oversubscribing.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


@dataclass
class SweepResult:
    """Aggregate of one engine sweep (fault-model-agnostic).

    ``verdicts`` is the dense per-candidate-id code array
    (:mod:`repro.engine.model` conventions); ``payloads`` holds the
    optional rich observations some models retain (e.g. the
    correlation table's per-bit output masks).
    """

    model_name: str
    model_key: str
    n_space: int
    verdicts: np.ndarray  # (n_space,) uint8 verdict codes
    candidate_ids: np.ndarray  # int64 ids swept (sorted after merge)
    n_simulated: int = 0
    host_seconds: float = 0.0
    telemetry: CampaignTelemetry | None = None
    payloads: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_candidates(self) -> int:
        return int(self.candidate_ids.size)

    def count(self, code: int) -> int:
        """Number of candidates that received verdict ``code``."""
        return int(np.count_nonzero(self.verdicts == code))

    def ids_with(self, code: int) -> np.ndarray:
        """Candidate ids that received verdict ``code``."""
        return np.flatnonzero(self.verdicts == code)


# -- merge / persistence -------------------------------------------------------


def merge_sweeps(parts: list[SweepResult]) -> SweepResult:
    """Combine sweeps over disjoint candidate sets into one result.

    Supports chunked or parallel execution: split the candidate space,
    run each chunk (possibly in separate processes), merge.  Model keys
    must match; candidate sets must not overlap.
    """
    if not parts:
        raise CampaignError("nothing to merge")
    fold = _Fold(parts[0])
    for part in parts[1:]:
        fold.merge(part)
    return fold.result(0.0, final=True)


def encode_done(ids: np.ndarray, n_space: int) -> np.ndarray:
    """Archive form of a done-candidate set: a packed bitmask.

    One bit per id of the verdict space ``[0, n_space)``
    (:func:`numpy.packbits`, ``ceil(n_space / 8)`` bytes), so a
    checkpoint's size no longer grows with 8 bytes per done id.  An id
    outside the space or listed twice raises :class:`CampaignError`:
    the mask cannot hold either, and folding them would change the set.
    """
    ids = np.asarray(ids, dtype=np.int64)
    outside = ids[(ids < 0) | (ids >= n_space)]
    if outside.size:
        raise CampaignError(
            f"cannot archive candidate id {int(outside[0])}: outside the "
            f"verdict space [0, {n_space})"
        )
    mask = np.zeros(n_space, dtype=bool)
    mask[ids] = True
    if int(np.count_nonzero(mask)) != ids.size:
        uniq, counts = np.unique(ids, return_counts=True)
        raise CampaignError(
            f"cannot archive candidate id {int(uniq[counts > 1][0])}: listed "
            f"more than once"
        )
    return np.packbits(mask)


def decode_done(data: Any, n_space: int, path: str) -> np.ndarray:
    """The sorted int64 done ids of an archive written by :func:`encode_done`.

    ``data`` is the loaded ``.npz``.
    """
    packed = data["done_bits"]
    n_bytes = -(-n_space // 8)
    if packed.dtype != np.uint8 or packed.shape != (n_bytes,):
        raise CampaignError(
            f"checkpoint {path!r}: done_bits must be {n_bytes} uint8 bytes for "
            f"a verdict space of {n_space}, got {packed.dtype} of shape {packed.shape}"
        )
    bits = np.unpackbits(packed)
    if bits[n_space:].any():
        raise CampaignError(f"checkpoint {path!r}: done_bits marks ids past {n_space}")
    return np.flatnonzero(bits[:n_space]).astype(np.int64, copy=False)


def save_sweep(sweep: SweepResult, path: str) -> None:
    """Persist a (possibly partial) sweep to ``path`` (.npz), atomically.

    The done candidates are stored as a packed mask
    (:func:`encode_done`).  Payloads must be equal-shape arrays (they
    are stacked into one block).  The write is tmp-file + rename, so a
    sweep killed while checkpointing never leaves a truncated snapshot
    behind.
    """
    payload = dict(
        model_name=np.str_(sweep.model_name),
        model_key=np.str_(sweep.model_key),
        n_space=np.int64(sweep.n_space),
        verdicts=sweep.verdicts,
        done_bits=encode_done(sweep.candidate_ids, sweep.n_space),
        n_simulated=np.int64(sweep.n_simulated),
        host_seconds=np.float64(sweep.host_seconds),
    )
    if sweep.telemetry is not None:
        payload["telemetry_json"] = np.str_(json.dumps(sweep.telemetry.to_dict()))
    if sweep.payloads:
        ids = np.array(sorted(sweep.payloads), dtype=np.int64)
        payload["payload_ids"] = ids
        payload["payload_values"] = np.stack([sweep.payloads[int(i)] for i in ids])
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        np.savez_compressed(f, **payload)
    os.replace(tmp, path)


#: the arrays every :func:`save_sweep` archive holds
_SWEEP_FIELDS = (
    "model_name", "model_key", "n_space", "verdicts", "done_bits", "n_simulated",
    "host_seconds",
)


def _sweep_archive(path: str) -> Any:
    """Open the ``.npz`` at ``path``, checked to hold every field
    :func:`save_sweep` writes; its arrays decode only when read."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as err:
        raise CampaignError(f"cannot load sweep checkpoint {path!r}: {err}") from None
    missing = [name for name in _SWEEP_FIELDS if name not in data.files]
    if missing:
        data.close()
        raise CampaignError(
            f"checkpoint {path!r} is not a sweep archive: it has no "
            f"{', '.join(missing)}"
        )
    return data


def load_sweep(path: str) -> SweepResult:
    """Load a sweep / checkpoint written by :func:`save_sweep`.

    An archive of any other layout — one that lacks a field
    :func:`save_sweep` writes — raises :class:`CampaignError` naming the
    path and the missing fields.
    """
    with _sweep_archive(path) as data:
        telemetry = None
        if "telemetry_json" in data.files:
            fields = {f.name for f in dataclasses.fields(CampaignTelemetry)}
            raw = json.loads(str(data["telemetry_json"]))
            telemetry = CampaignTelemetry(**{k: v for k, v in raw.items() if k in fields})
        payloads: dict[int, np.ndarray] = {}
        if "payload_ids" in data.files:
            values = data["payload_values"]
            payloads = {int(i): values[k] for k, i in enumerate(data["payload_ids"])}
        n_space = int(data["n_space"])
        return SweepResult(
            model_name=str(data["model_name"]),
            model_key=str(data["model_key"]),
            n_space=n_space,
            verdicts=data["verdicts"],
            candidate_ids=decode_done(data, n_space, path),
            n_simulated=int(data["n_simulated"]),
            host_seconds=float(data["host_seconds"]),
            telemetry=telemetry,
            payloads=payloads,
        )


# -- whole-sweep result cache --------------------------------------------------


def _serve_cached_sweep(
    cached: SweepResult,
    cache0: tuple[int, int, int],
    jobs: int,
    checkpoint_save: Callable[[SweepResult], None] | None,
) -> SweepResult:
    """Stamp a cache-served sweep so telemetry reflects *this* run.

    The stored result carries the producing run's timings and kernel
    counters (verdict-invariant); only the cache counters are rewritten
    to describe the serving run, so ``cache_hits > 0`` is the observable
    signature of a warm sweep.
    """
    telem = cached.telemetry
    if telem is not None:
        hits, misses, nbytes = CACHE_STATS.delta(cache0)
        telem.cache_hits = hits
        telem.cache_misses = misses
        telem.cache_bytes = nbytes
        telem.jobs = jobs
    observer = get_observer()
    if observer.enabled:
        observer.tracer.point(
            "cache_hit",
            scope="sweep",
            model=cached.model_name,
            candidates=int(cached.candidate_ids.size),
        )
        if telem is not None:
            observer.tracer.point("telemetry", **telem.to_dict())
    if checkpoint_save is not None:
        checkpoint_save(cached)
    return cached


# -- worker-side state ---------------------------------------------------------
#
# Keyed by the model *ref* — the content address of the pickled model
# when an executor backend primed a blob store (local pool initializer,
# TCP one-time upload), or the raw pickled bytes for external pools
# that ship the blob per task (which identifies design, device and
# every knob either way).  Bounded so a long-lived pool sweeping many
# models cannot hoard contexts.  Each entry is ``(model, context)``.
# An in-process sweep registers its own entry under a private ref and
# removes it when it ends.

_MAX_CACHED = 4
_MODEL_STATE: dict[Hashable, tuple[FaultModel, Any]] = {}


def _model_state(model_ref: Hashable) -> tuple[FaultModel, Any]:
    """The worker-side cache: unpickle once, derive the context once."""
    state = _MODEL_STATE.get(model_ref)
    if state is None:
        if len(_MODEL_STATE) >= _MAX_CACHED:
            _MODEL_STATE.clear()
        model = pickle.loads(resolve_blob(model_ref))
        state = (model, model.build_context())
        _MODEL_STATE[model_ref] = state
    return state


def _check_prefilter_chunk(
    model: FaultModel, cands: np.ndarray, codes: Any, survivors: Any
) -> None:
    """Hold a :meth:`FaultModel.prefilter_chunk` result to its contract."""
    where = f"{type(model).__name__}.prefilter_chunk"
    if not (
        isinstance(codes, np.ndarray) and codes.dtype == np.uint8 and codes.shape == cands.shape
    ):
        shape = getattr(codes, "shape", None)
        dtype = getattr(codes, "dtype", type(codes).__name__)
        raise CampaignError(
            f"{where} must return one uint8 code per candidate "
            f"({cands.size}), got {dtype} of shape {shape}"
        )
    expected = cands[codes == CODE_NOT_TESTED]
    try:
        got = np.array([int(c) for c, _ in survivors], dtype=np.int64)
    except (TypeError, ValueError):
        got = None
    if got is None or not np.array_equal(got, expected):
        raise CampaignError(
            f"{where} survivors must be the {expected.size} CODE_NOT_TESTED "
            f"candidates as (candidate, payload) pairs in chunk order, got "
            f"{'malformed pairs' if got is None else got.tolist()[:8]}"
        )


class _Parcel:
    """A survivor's patch on its way from pre-filter to observe: pickled
    at most once, where it was derived, and unpickled only where it is
    simulated, so the parent and the result store forward bytes."""

    __slots__ = ("patch", "blob")

    def __init__(self, patch: Any = None, blob: bytes | None = None):
        self.patch, self.blob = patch, blob

    def __reduce__(self):
        if self.blob is None:
            self.blob = pickle.dumps(self.patch)
        return _Parcel, (None, self.blob)

    def open(self) -> Any:
        if self.patch is None and self.blob is not None:
            self.patch = pickle.loads(self.blob)
        return self.patch


def _worker_prefilter(
    model_ref, cands: np.ndarray
) -> tuple[np.ndarray, list[tuple[Any, Any, _Parcel]], float]:
    """Classify one contiguous candidate chunk with the model's
    :meth:`~repro.engine.model.FaultModel.prefilter_chunk`.

    Returns per-candidate verdict codes aligned with ``cands``
    (``CODE_NOT_TESTED`` marks a pre-filter survivor that must be
    simulated), one ``(signature, settle key, parcel)`` per survivor in
    order — everything the parent needs to group collapse classes and
    batches, and the patch the observe phase simulates — and the worker
    seconds spent.  This is the one place a survivor's patch is
    derived, and only when the pre-filter gave no payload.
    """
    t0 = time.perf_counter()
    model, ctx = _model_state(model_ref)
    codes, survivors = model.prefilter_chunk(cands, ctx)
    _check_prefilter_chunk(model, cands, codes, survivors)
    info: list[tuple[Any, Any, _Parcel]] = []
    for cand, patch in survivors:
        cand = int(cand)
        if patch is None:
            patch = model.patch_for(cand, ctx)
        info.append(
            (
                model.collapse_signature(cand, ctx, patch),
                model.collapse_salt_datum(cand, ctx, patch),
                _Parcel(patch),
            )
        )
    return codes, info, time.perf_counter() - t0


def _worker_observe(
    model_ref, cands: np.ndarray, cuts: np.ndarray, parcels: list[_Parcel]
) -> tuple[
    np.ndarray, dict[int, np.ndarray], list[float], float, tuple[int, int, int]
]:
    """Simulate one shard, one batch per ``np.split(cands, cuts)`` piece.

    ``cands`` are survivors (under collapse, class representatives),
    ``parcels`` their pre-filter patches in the same order, and every
    batch holds one settle key.  Returns verdict codes aligned with
    ``cands``, the retained payloads, the per-batch durations, the
    worker seconds spent, and the kernel fault-dropping counter delta.
    """
    t0 = time.perf_counter()
    kern0 = KERNEL_COUNTERS.snapshot()
    model, ctx = _model_state(model_ref)
    codes = np.empty(cands.size, dtype=np.uint8)
    payloads: dict[int, np.ndarray] = {}
    batch_seconds: list[float] = []
    start = 0
    for batch in np.split(cands, cuts):
        t_batch = time.perf_counter()
        pending = [
            (cand, parcel.open())
            for cand, parcel in zip(batch.tolist(), parcels[start : start + batch.size])
        ]
        observations = model.observe_batch(ctx, pending)
        for j, ((cand, _), obs) in enumerate(zip(pending, observations)):
            codes[start + j] = model.classify(obs)
            rich = model.payload(obs)
            if rich is not None:
                payloads[cand] = rich
        start += len(pending)
        batch_seconds.append(time.perf_counter() - t_batch)
    return (
        codes, payloads, batch_seconds, time.perf_counter() - t0,
        KERNEL_COUNTERS.delta(kern0),
    )


# -- the driver ----------------------------------------------------------------


def shard_survivors(survivors: np.ndarray, n_shards: int) -> list[np.ndarray]:
    """Cut the survivor sequence into ``n_shards`` equal contiguous shards.

    Sizes differ by at most one; empty shards are dropped.
    """
    n_shards = max(1, min(n_shards, int(survivors.size)))
    return [s for s in np.array_split(survivors, n_shards) if s.size]


def _batch_cuts(keys: list[Any], batch_size: int) -> np.ndarray:
    """``np.split`` offsets batching one shard: at every settle-key change
    and every ``batch_size`` survivors within a run of equal keys."""
    cuts = []
    run0 = 0
    for i in range(1, len(keys)):
        if keys[i] != keys[i - 1]:
            run0 = i
            cuts.append(i)
        elif (i - run0) % batch_size == 0:
            cuts.append(i)
    return np.asarray(cuts, dtype=np.int64)


def _collapse_classes(
    survivors: np.ndarray, signatures: list[Any]
) -> tuple[list[int], dict[int, list[int]]]:
    """Group survivors into collapse classes by signature.

    Keeps the first candidate of every signature as its representative
    and the rest as followers (a ``None`` signature is a class of its
    own).  Returns the representatives' survivor indices, in candidate
    order, and each representative's followers.
    """
    reps: list[int] = []
    followers: dict[int, list[int]] = {}
    rep_of: dict[Any, int] = {}  # signature -> rep cand
    for i, sig in enumerate(signatures):
        cand = int(survivors[i])
        rep = rep_of.get(sig) if sig is not None else None
        if rep is not None:
            followers[rep].append(cand)
            continue
        if sig is not None:
            rep_of[sig] = cand
        followers[cand] = []
        reps.append(i)
    return reps, followers


class _Fold:
    """Dense verdicts plus a done mask; a :class:`SweepResult` on demand.

    Seeded with one sweep (``base``); whole earlier sweeps of the same
    model fold in with :meth:`merge`, shards by assignment with
    :meth:`add`, so nothing is ever re-merged; a result object is built
    only when a snapshot is written.
    """

    def __init__(self, base: SweepResult):
        self.model_name = base.model_name
        self.model_key = base.model_key
        self.verdicts = base.verdicts.copy()
        self.done = np.zeros(self.verdicts.size, dtype=bool)
        self.done[base.candidate_ids] = True
        self.payloads = dict(base.payloads)
        self.n_simulated = base.n_simulated
        self.prior_host = base.host_seconds

    def check(self, model_key: str, candidates: np.ndarray) -> None:
        """Refuse another model's sweep, or candidates already folded."""
        if model_key != self.model_key:
            raise CampaignError(
                f"cannot merge sweeps of different models "
                f"({model_key!r} vs {self.model_key!r})"
            )
        overlap = np.unique(candidates[self.done[candidates]])
        if overlap.size:
            raise CampaignError(
                f"candidate sets overlap ({overlap.size} ids, e.g. {int(overlap[0])})"
            )

    def merge(self, part: SweepResult) -> None:
        """Fold in a whole sweep of the same model over other candidates."""
        ids = part.candidate_ids
        self.check(part.model_key, ids)
        self.add(ids, part.verdicts[ids], part.n_simulated, part.payloads)
        self.prior_host += part.host_seconds

    def add(
        self,
        cands: np.ndarray,
        codes: np.ndarray,
        n_simulated: int = 0,
        payloads: dict[int, np.ndarray] | None = None,
    ) -> None:
        self.verdicts[cands] = codes
        self.done[cands] = True
        self.n_simulated += n_simulated
        if payloads:
            self.payloads.update(payloads)

    def result(self, seconds: float, final: bool = False) -> SweepResult:
        return SweepResult(
            model_name=self.model_name,
            model_key=self.model_key,
            n_space=int(self.verdicts.size),
            verdicts=self.verdicts if final else self.verdicts.copy(),
            candidate_ids=np.flatnonzero(self.done).astype(np.int64, copy=False),
            n_simulated=self.n_simulated,
            host_seconds=self.prior_host + seconds,
            payloads=self.payloads if final else dict(self.payloads),
        )


def run_sharded(
    model: FaultModel,
    jobs: int | None = None,
    batch_size: int = 128,
    candidates: np.ndarray | None = None,
    checkpoint_save: Callable[[SweepResult], None] | None = None,
    checkpoint_every: int = 50_000,
    merge_with: SweepResult | None = None,
    executor=None,
    shards_per_job: int = 4,
    context: Any | None = None,
) -> SweepResult:
    """Exhaustive sweep of one fault model, byte-identical for any ``jobs``.

    ``jobs=None`` uses every CPU (:func:`default_jobs`).  ``jobs=1``
    without an external executor or a non-local transport runs every
    task in this process, in order — no executor, pickling or retry;
    otherwise tasks go through a :class:`ShardExecutor`.  On every path
    a survivor's patch is derived once, by its pre-filter task, and
    travels to its observe shard with it.  An external ``executor`` (e.g. a
    shared pool) is used as-is and not shut down.  The ambient
    :func:`get_executor_policy` governs failure handling, and its
    ``transport`` picks the transport (``--executor tcp`` reaches here
    that way).  ``context`` is a prebuilt
    :meth:`FaultModel.build_context` result for this process.

    With ``checkpoint_save`` the driver hands partial
    :class:`SweepResult` snapshots to the callback: after the
    pre-filter (under a pool), then as observe shards complete —
    ``ceil(survivors / checkpoint_every)`` shards, at least ``jobs *
    shards_per_job`` under a pool — and once with the complete result
    at the end.
    ``merge_with`` folds an earlier partial result into every snapshot
    (used by resume so re-interrupted runs stay whole).

    For a :attr:`~FaultModel.collapsible` model the parent groups
    survivors into classes by their worker-computed signatures,
    dispatches only representatives, and fans each verdict out to the
    representative's followers.

    **Result store.** With an ambient
    :func:`~repro.engine.cache.result_cache`, the driver looks the whole
    sweep up before building a context, and every shard before it runs;
    what it computes it stores.  Keys are ``content_key(kind, model
    digest, candidates)`` for the kinds ``"sweep"``, ``"prefilter"`` and
    ``"observe"``; no key holds ``jobs``, ``batch_size`` or the
    transport, which cannot change a byte.

    **Fault tolerance.** With a pool both phases drain through a
    :class:`~repro.engine.executor.ShardExecutor` governed by the
    ambient policy: worker
    exceptions retry with backoff, a broken pool is rebuilt and its
    in-flight shards relaunched, stalled shards are speculatively
    re-executed (first result wins; shards are deterministic so the
    bytes cannot differ), and shards that keep failing are quarantined.
    A quarantined shard's candidates stay untested and are *excluded*
    from ``candidate_ids`` — the sweep still completes and checkpoints
    everything resolved, then raises :class:`CampaignError` unless
    ``policy.allow_partial``.  Quarantine drops are resume-safe: no
    verdict depends on which candidates share a batch, so a later
    resume of the remainder yields the byte-identical sweep.
    """
    jobs = default_jobs() if jobs is None else int(jobs)
    if jobs < 1:
        raise CampaignError(f"jobs must be >= 1, got {jobs}")
    policy = get_executor_policy()
    if candidates is None:
        candidates = model.enumerate_candidates()
    candidates = np.asarray(candidates, dtype=np.int64)
    pooled = not (jobs == 1 and executor is None and policy.transport == "local")

    # Whole-sweep result cache: consulted *before* the context build so
    # a warm repeat skips even the golden simulation.  Resume merges
    # (``merge_with``) sweep a remainder range whose key differs, so
    # only clean full runs are served or stored.
    t0 = time.perf_counter()
    cache0 = CACHE_STATS.snapshot()
    store = result_cache()
    model_blob = pickle.dumps(model) if pooled or store is not None else None
    # The pickled model holds every field its key() is built from.
    model_digest = blob_digest(model_blob) if store is not None else None
    sweep_key: str | None = None
    if store is not None and merge_with is None:
        sweep_key = content_key("sweep", model_digest, candidates)
        cached = store.get(sweep_key)
        if cached is not None:
            return _serve_cached_sweep(cached, cache0, jobs, checkpoint_save)
    model_key, n_space = model.key(), model.space_size()
    fold = _Fold(
        SweepResult(
            model.name, model_key, n_space, np.zeros(n_space, dtype=np.uint8),
            np.empty(0, dtype=np.int64),
        )
    )
    if merge_with is not None:
        fold.merge(merge_with)
    fold.check(model_key, candidates)
    telem = CampaignTelemetry(n_candidates=int(candidates.size), jobs=jobs)

    # Observability hooks.  Every emission below only *reads* campaign
    # state — the verdict-invariance contract (see repro.obs) — and the
    # untraced path pays one `observing` check per site.
    observer = get_observer()
    tracer, progress = observer.tracer, observer.progress
    observing = observer.enabled
    root_span = tracer.open_span(
        "campaign",
        model=model.name,
        key=model_key,
        jobs=jobs,
        candidates=int(candidates.size),
        collapse=model.collapsible,
    )

    def add_kernel_delta(kd: tuple[int, int, int]) -> None:
        telem.machines_retired += kd[0]
        telem.machine_cycles_saved += kd[1]
        telem.ff_cycles_skipped += kd[2]

    shard_exec = ShardExecutor(jobs, policy, pool=executor) if pooled else None
    if shard_exec is not None:
        # Register the pickled model with the transport once; every task
        # carries only the returned ref (a content address for backends
        # with a primed blob store, the raw bytes for external pools).
        model_ref: Hashable = shard_exec.prime_blob(model_blob)
    else:
        model_ref = ("in-process", id(model))

    # Pre-populate the worker cache under the same ref the tasks carry:
    # under fork the children inherit the model context copy-on-write;
    # under spawn the pool initializer re-installs the blob and workers
    # re-derive the context once each (and the parent still needs the
    # context for collapse grouping).
    state = _MODEL_STATE.get(model_ref)
    if context is None and state is not None:
        context = state[1]
    elif context is None:
        kern0 = KERNEL_COUNTERS.snapshot()
        context = model.build_context()
        add_kernel_delta(KERNEL_COUNTERS.delta(kern0))
    if model_ref not in _MODEL_STATE and pooled and len(_MODEL_STATE) >= _MAX_CACHED:
        _MODEL_STATE.clear()
    _MODEL_STATE[model_ref] = (model, context)

    def in_process(tasks: list[TaskSpec], span_parent: int | None):
        for spec in tasks:
            span = -1
            if observing and span_parent is not None:
                span = tracer.open_span("shard", parent=span_parent, **spec.fields)
            result = spec.fn(*spec.args)
            tracer.close_span(span, attempts=1)
            yield spec.key, result

    def drain(tasks: list[TaskSpec], phase: str, span_parent: int | None = None):
        """Yield ``(task key, result)`` as one phase's tasks resolve.

        The one place shard results meet the result store: a stored
        task resolves without running, and every computed result is
        stored, in this process, whatever ``jobs`` and transport.
        """
        todo, keys = tasks, {}
        if store is not None:
            todo = []
            for spec in tasks:
                # args[1] is the task's candidates, in either phase
                keys[spec.key] = content_key(phase, model_digest, spec.args[1])
                hit = store.get(keys[spec.key])
                if hit is None:
                    todo.append(spec)
                    continue
                if observing:
                    tracer.point("cache_hit", scope="shard", key=spec.key, phase=phase)
                yield spec.key, hit
        if shard_exec is None:
            results = in_process(todo, span_parent)
        else:
            results = shard_exec.run(
                todo,
                phase=phase,
                telemetry=telem,
                span_name=None if span_parent is None else "shard",
                span_parent=span_parent,
            )
        for key, result in results:
            if store is not None:
                store.put(keys[key], result)
            yield key, result

    def checkpoint() -> None:
        if checkpoint_save is None:
            return
        t_ck = time.perf_counter()
        snapshot = fold.result(t_ck - t0)
        checkpoint_save(snapshot)
        seconds = time.perf_counter() - t_ck
        telem.checkpoint_seconds += seconds
        if observing:
            tracer.point(
                "checkpoint",
                n_done=int(snapshot.candidate_ids.size),
                seconds=round(seconds, 6),
            )

    try:
        # Phase 1: pre-filter over contiguous candidate chunks.
        n_chunks = jobs * shards_per_job if pooled else 1
        n_chunks = max(1, min(n_chunks, int(candidates.size)))
        chunks = [c for c in np.array_split(candidates, n_chunks) if c.size]
        prefilter_span = tracer.open_span("phase.prefilter", chunks=len(chunks))
        progress.start(f"{model.name} prefilter", total=len(chunks))
        prefilter_tasks = [
            TaskSpec(f"prefilter:{i}", _worker_prefilter, (model_ref, c))
            for i, c in enumerate(chunks)
        ]

        def prefilter() -> tuple[np.ndarray, list[tuple[Any, Any, _Parcel]]]:
            """Fold the settled candidates; return survivors and their
            ``(signature, settle key, parcel)``, in candidate order.

            Quarantined chunks are dropped — their candidates stay
            untested, excluded from the result entirely, so a later
            resume re-tests them (pre-filtering is per-candidate pure;
            dropping any subset is resume-safe).
            """
            chunk_results: dict[int, tuple] = {}
            for key, res in drain(prefilter_tasks, "prefilter"):
                chunk_results[int(key.split(":", 1)[1])] = res
                telem.prefilter_seconds += res[-1]
                if observing:
                    progress.update(len(chunk_results))
            kept_codes = [np.empty(0, dtype=np.uint8)]
            kept_chunks = [np.empty(0, dtype=np.int64)]
            surv_info: list[tuple[Any, Any, _Parcel]] = []
            for i, chunk in enumerate(chunks):
                res = chunk_results.pop(i, None)
                if res is None:  # quarantined chunk
                    telem.candidates_quarantined += int(chunk.size)
                    continue
                kept_codes.append(res[0])
                kept_chunks.append(chunk)
                surv_info.extend(res[1])
            codes = np.concatenate(kept_codes)
            kept = np.concatenate(kept_chunks)
            bad = codes[codes > CODE_SKIP_UNADDRESSED]
            if bad.size:
                raise CampaignError(f"prefilter returned non-skip code {int(bad[0])}")
            telem.skip_structural = int(np.count_nonzero(codes == CODE_SKIP_STRUCTURAL))
            telem.skip_cone = int(np.count_nonzero(codes == CODE_SKIP_CONE))
            telem.skip_unaddressed = int(np.count_nonzero(codes == CODE_SKIP_UNADDRESSED))
            settled = codes != CODE_NOT_TESTED
            fold.add(kept[settled], codes[settled])
            return kept[~settled], surv_info

        survivors, surv_info = prefilter()
        n_surv = int(survivors.size)
        telem.n_simulated = n_surv
        if observing:
            tracer.close_span(
                prefilter_span,
                survivors=n_surv,
                skipped=telem.n_skipped,
                worker_seconds=round(telem.prefilter_seconds, 6),
            )
            progress.finish(f"{n_surv} survivor(s)")

        # Under a pool, snapshot the pre-filter's settled candidates; an
        # in-process pre-filter is cheap next to the survivors it feeds.
        if pooled and telem.n_skipped and n_surv:
            checkpoint()

        # The observe plan: one shard per ``checkpoint_every`` survivors,
        # and at least ``jobs * shards_per_job`` to keep a pool busy.
        n_shards = -(-n_surv // max(1, int(checkpoint_every)))
        if pooled:
            n_shards = max(n_shards, jobs * shards_per_job)
        observe_span = tracer.open_span("phase.observe", survivors=n_surv)
        progress.start(f"{model.name} observe", total=n_surv)
        done_bits = 0

        def shard_done(res: tuple, n_bits: int) -> tuple[np.ndarray, dict]:
            nonlocal done_bits
            shard_codes, shard_payloads, batch_seconds, seconds, kd = res
            telem.n_batches += len(batch_seconds)
            telem.simulate_seconds += seconds
            for b in batch_seconds:
                telem.record_batch_seconds(b)
            telem.record_shard_seconds(seconds)
            add_kernel_delta(kd)
            if observing:
                done_bits += n_bits
                progress.update(done_bits)
                if telem.n_batches // _COUNTER_SAMPLE_BATCHES != (
                    telem.n_batches - len(batch_seconds)
                ) // _COUNTER_SAMPLE_BATCHES:
                    tracer.counters(KERNEL_COUNTERS.to_dict())
            return shard_codes, shard_payloads

        # Phase 2: observe.  Without collapse every survivor is its own
        # representative; with collapse only the first survivor of every
        # signature class is.  Representatives are stable-sorted by settle
        # key and cut into equal shards of single-key batches.
        followers: dict[int, list[int]] = {}  # rep cand -> follower cands
        rep_idx = list(range(n_surv))
        if model.collapsible:
            rep_idx, followers = _collapse_classes(
                survivors, [sig for sig, _, _ in surv_info]
            )
        order = sorted(rep_idx, key=lambda i: surv_info[i][1])
        keys = [surv_info[i][1] for i in order]
        parcels = [surv_info[i][2] for i in order]
        del surv_info  # followers' patches are never simulated
        shards = shard_survivors(survivors[order], n_shards)
        observe_tasks = []
        pos = 0
        for i, shard in enumerate(shards):
            end = pos + int(shard.size)
            # args[1] keys the shard in the result store
            observe_tasks.append(
                TaskSpec(
                    f"observe:{i}",
                    _worker_observe,
                    (model_ref, shard, _batch_cuts(keys[pos:end], batch_size),
                     parcels[pos:end]),
                    {"index": i, "bits": int(shard.size)},
                )
            )
            pos = end
        del parcels

        def with_followers(reps: np.ndarray) -> np.ndarray:
            """``reps`` then every follower, in representative order."""
            flw = [f for r in reps for f in followers.get(int(r), ())]
            return np.concatenate([reps, np.asarray(flw, dtype=np.int64)])

        # A finished shard folds its representatives and their followers,
        # in any completion order.
        n_folded = 0
        for key, res in drain(observe_tasks, "observe", observe_span):
            reps = shards[int(key.split(":", 1)[1])]
            cands = with_followers(reps)
            rep_codes, payloads = shard_done(res, int(cands.size))
            flws = [followers.get(int(r), ()) for r in reps]
            codes = np.concatenate([rep_codes, np.repeat(rep_codes, [len(f) for f in flws])])
            payloads = dict(payloads)
            for rep, flw in zip(reps, flws):
                rich = payloads.get(int(rep))
                if rich is not None:
                    payloads.update((f, rich.copy()) for f in flw)
            telem.n_collapsed += int(cands.size - reps.size)
            fold.add(cands, codes, int(cands.size), payloads)
            n_folded += 1
            if n_folded < len(shards):  # the complete result is written last
                checkpoint()
        # A quarantined shard's candidates are simply absent from the
        # result; a resume re-tests them.
        telem.candidates_quarantined += sum(
            int(with_followers(shards[int(k.split(":", 1)[1])]).size)
            for k in (shard_exec.quarantined if shard_exec is not None else ())
            if k.startswith("observe:")
        )
        if observing:
            tracer.close_span(observe_span, batches=telem.n_batches)
            progress.finish(f"{telem.n_batches} batch(es)")
    finally:
        if shard_exec is not None:
            shard_exec.close()
        else:
            _MODEL_STATE.pop(model_ref, None)

    telem.wall_seconds = time.perf_counter() - t0
    result = fold.result(telem.wall_seconds, final=True)
    telem.cache_hits, telem.cache_misses, telem.cache_bytes = CACHE_STATS.delta(cache0)
    result.telemetry = telem
    quarantined = shard_exec.quarantined if shard_exec is not None else {}
    # Store the whole sweep only when it is clean and complete — never a
    # quarantined partial (its verdicts exclude untested candidates).
    if store is not None and sweep_key is not None and not quarantined:
        store.put(sweep_key, result)
    if checkpoint_save is not None:
        t_ck = time.perf_counter()
        checkpoint_save(result)
        telem.checkpoint_seconds += time.perf_counter() - t_ck
    if observing:
        tracer.point("telemetry", **telem.to_dict())
        tracer.counters(KERNEL_COUNTERS.to_dict())
        tracer.close_span(
            root_span, n_simulated=telem.n_simulated, n_batches=telem.n_batches
        )
    if quarantined and not policy.allow_partial:
        keys = ", ".join(sorted(quarantined))
        late = ""
        if shard_exec.late_results:
            late = (
                f" ({len(shard_exec.late_results)} quarantined shard(s) "
                f"completed during teardown — logged, not merged)"
            )
        raise CampaignError(
            f"{len(quarantined)} shard(s) quarantined ({keys}){late}; "
            f"everything resolved was checkpointed — re-run to retry the "
            f"missing work, or pass --allow-partial to accept a partial sweep"
        )
    return result


def run_serial(model: FaultModel, **kwargs: Any) -> SweepResult:
    """:func:`run_sharded` with ``jobs=1``: the whole sweep in this process."""
    return run_sharded(model, jobs=1, **kwargs)


# -- convenience front door (engine-native checkpoint format) ------------------


def run_sweep(
    model: FaultModel,
    jobs: int | None = 1,
    checkpoint_path: str | None = None,
    *,
    resume: bool = False,
    **kwargs: Any,
) -> SweepResult:
    """Run a sweep with the engine's checkpoint format.

    The entry point every fault model's adapter goes through:
    ``checkpoint_path`` snapshots :func:`save_sweep` archives; ``jobs``
    and every other keyword argument are :func:`run_sharded`'s.

    ``resume=True`` restarts an interrupted sweep from the archive at
    ``checkpoint_path`` (required): the archive must be this model's,
    and only its remaining candidates are swept, checkpointing to the
    same file.  No verdict depends on which candidates share a batch,
    so the merged result is byte-identical to a never-killed sweep, for
    any worker count or batch size on either side.
    """
    checkpoint_cb = None
    if checkpoint_path is not None:

        def checkpoint_cb(sweep: SweepResult) -> None:
            save_sweep(sweep, checkpoint_path)

    if resume:
        part = load_sweep(_resume_path(checkpoint_path))
        if part.model_key != model.key():
            raise CampaignError(
                f"checkpoint {checkpoint_path!r} is for {part.model_key!r}, "
                f"not {model.key()!r}"
            )
        candidates = np.asarray(model.enumerate_candidates(), dtype=np.int64)
        remaining = np.setdiff1d(candidates, part.candidate_ids)
        if remaining.size == 0:
            return part
        kwargs.update(candidates=remaining, merge_with=part)
    return run_sharded(model, jobs=jobs, checkpoint_save=checkpoint_cb, **kwargs)


def _resume_path(checkpoint_path: str | None) -> str:
    """The archive path a resume continues from; a resume needs one."""
    if checkpoint_path is None:
        raise CampaignError("resume requires a checkpoint path")
    return checkpoint_path


def _checkpoint_model_key(checkpoint_path: str | None) -> str:
    """The model key of the archive a resume continues from, read
    without decoding its verdicts or done bits."""
    with _sweep_archive(_resume_path(checkpoint_path)) as data:
        return str(data["model_key"])
