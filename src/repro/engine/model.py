"""The fault-model protocol the campaign engine drives.

A fault model answers four questions — *what* could break
(:meth:`FaultModel.enumerate_candidates`), *which* candidates provably
cannot matter (:meth:`FaultModel.prefilter`, applied chunk by chunk
through :meth:`FaultModel.prefilter_chunk`), *how* a candidate perturbs
the hardware (:meth:`FaultModel.patch_for`, asked once per pre-filter
survivor that came without its patch; the patch then travels with the
survivor to its observe shard), and *what* an observation means
(:meth:`FaultModel.classify`).  Everything else — batching,
process sharding, checkpoint/resume, merging, telemetry — is the
engine's job and identical across fault classes.

Verdict-code convention (uint8, stored per candidate id):

========================  ====================================================
``CODE_NOT_TESTED`` (0)   outside the candidate set / pre-filter survivor
                          awaiting simulation
``CODE_SKIP_*`` (1-3)     pre-filter skip classes; the engine aggregates them
                          into the telemetry skip counters, so models should
                          reuse these three codes for their skip rules
codes >= 4                simulated outcomes, model-defined
                          (``CODE_NO_EFFECT``/``CODE_FAIL`` are the common
                          detect-only pair)
========================  ====================================================

Models and their patches must be **picklable** (both are shipped to
worker processes) and models cheap to pickle: heavy per-process state —
an implemented design, a golden trace, a warm-state snapshot — is
derived in :meth:`FaultModel.build_context`, which the engine calls
once per process and caches (see :mod:`repro.engine.cache` for the shared
implemented-design cache).
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar

import numpy as np

__all__ = [
    "CODE_NOT_TESTED",
    "CODE_SKIP_STRUCTURAL",
    "CODE_SKIP_CONE",
    "CODE_SKIP_UNADDRESSED",
    "CODE_NO_EFFECT",
    "CODE_FAIL",
    "FaultModel",
    "default_patch_signature",
]

#: candidate not (yet) tested — also the pre-filter "survivor" code
CODE_NOT_TESTED = 0
#: skip: the fault does not alter the modeled hardware
CODE_SKIP_STRUCTURAL = 1
#: skip: the alteration cannot reach an observable output
CODE_SKIP_CONE = 2
#: skip: the altered entry is never exercised by the reference run
CODE_SKIP_UNADDRESSED = 3
#: simulated; no output ever deviated
CODE_NO_EFFECT = 4
#: simulated; an output error was observed
CODE_FAIL = 5


def default_patch_signature(patch: Any) -> Any:
    """Canonical hashable signature of a ``patch_for`` result, or None.

    ``None`` means "not collapsible" — the engine always simulates such
    a candidate itself.  Handles the shapes the bundled fault models
    produce: a single :class:`~repro.netlist.compiled.Patch`, a
    tuple/list of them (BIST variant pairs), and plain hashable scalars.
    A container propagates ``None`` from any element (one opaque member
    makes the whole candidate opaque).
    """
    from repro.netlist.compiled import Patch

    if patch is None:
        return None
    if isinstance(patch, Patch):
        return ("patch", patch.signature())
    if isinstance(patch, (tuple, list)):
        parts = []
        for p in patch:
            sig = default_patch_signature(p)
            if sig is None:
                return None
            parts.append(sig)
        return ("seq", tuple(parts))
    if isinstance(patch, (int, str, bytes, bool)):
        return ("raw", patch)
    return None


class FaultModel(abc.ABC):
    """One fault class, as seen by the campaign engine.

    The engine guarantees the *determinism contract* on the model's
    behalf: a batch only ever holds survivors with equal
    :meth:`collapse_salt_datum` settle keys, so each observation is the
    one a batch of that candidate alone would give, whatever the batch
    size, shard count or ``jobs``.  A model only has to keep its own
    methods deterministic per candidate.
    """

    #: short identifier recorded in checkpoints ("seu", "mbu", ...)
    name: ClassVar[str] = "fault"

    #: opt out of fault collapsing entirely (e.g. models whose payloads
    #: depend on more than the patch); the engine then simulates every
    #: survivor itself
    collapsible: ClassVar[bool] = True

    @abc.abstractmethod
    def key(self) -> str:
        """Identity string for checkpoint validation.

        Two model instances with equal keys must produce identical
        sweeps; resume refuses a checkpoint whose key differs.
        """

    @abc.abstractmethod
    def space_size(self) -> int:
        """Length of the verdict array (> every candidate id)."""

    @abc.abstractmethod
    def enumerate_candidates(self) -> np.ndarray:
        """All candidate ids, int64, in sweep order."""

    @abc.abstractmethod
    def build_context(self) -> Any:
        """Derive the heavy per-process state (once per process).

        Must be deterministic: every process derives an equivalent
        context from the pickled model alone.
        """

    def prefilter(self, candidate: int, ctx: Any) -> tuple[int, Any | None]:
        """Structural pre-filter for one candidate.

        Returns ``(skip_code, None)`` with ``skip_code`` in
        ``CODE_SKIP_*`` when the candidate provably cannot produce an
        observable error, or ``(CODE_NOT_TESTED, payload)`` when it
        must be simulated.  A non-``None`` payload is the survivor's
        patch on every path; for a ``None`` payload the engine calls
        :meth:`patch_for` once.
        """
        return CODE_NOT_TESTED, None

    def prefilter_chunk(
        self, cands: np.ndarray, ctx: Any
    ) -> tuple[np.ndarray, list[tuple[int, Any | None]]]:
        """Structural pre-filter for one contiguous chunk of candidates.

        Returns one uint8 code per candidate, aligned with ``cands``,
        and the survivors as ``(candidate, payload)`` pairs: exactly the
        ``CODE_NOT_TESTED`` candidates, in chunk order, each with the
        payload :meth:`prefilter` would give it.  The engine calls this,
        never :meth:`prefilter` directly, and raises
        :class:`~repro.errors.CampaignError` on a result that breaks
        these rules.

        The default runs :meth:`prefilter` once per candidate.  Override
        it when most candidates can be settled by one array operation
        over the chunk (the SEU model skips every dead configuration bit
        with one gather of the golden live-bit mask) so the per-candidate
        cost follows the survivors.  An override must give the codes and
        payloads of the default loop, for any chunk.
        """
        codes = np.empty(cands.size, dtype=np.uint8)
        survivors: list[tuple[int, Any | None]] = []
        for i, cand in enumerate(cands.tolist()):
            code, payload = self.prefilter(cand, ctx)
            codes[i] = code
            if code == CODE_NOT_TESTED:
                survivors.append((cand, payload))
        return codes, survivors

    @abc.abstractmethod
    def patch_for(self, candidate: int, ctx: Any) -> Any:
        """The candidate's hardware perturbation (simulator patch)."""

    @abc.abstractmethod
    def observe_batch(self, ctx: Any, pending: list[tuple[int, Any]]) -> list[Any]:
        """Simulate one batch of ``(candidate, patch)`` survivors.

        Returns one observation per entry, aligned with ``pending``.
        Every entry shares one settle key (:meth:`collapse_salt_datum`),
        so batch-level parameters derived from ``pending`` are each
        entry's own.
        """

    @abc.abstractmethod
    def classify(self, observation: Any) -> int:
        """Map one observation to its verdict code (>= 4)."""

    # -- fault collapsing and settle grouping -------------------------------
    #
    # A candidate's observation is a pure function of its patch, because
    # the engine only batches candidates whose settle keys are equal: a
    # batch's auto-detected simulation parameters are then each
    # machine's own.  Candidates with equal signatures therefore form
    # one equivalence class; the engine simulates a single
    # representative per class and fans the observation out.

    def collapse_signature(self, candidate: int, ctx: Any, patch: Any) -> Any:
        """Hashable equivalence-class key of this candidate's patch.

        ``None`` opts the candidate out (it is always simulated).  The
        default derives it from the patch itself; override only when
        the observation depends on more than the patch.
        """
        return default_patch_signature(patch)

    def collapse_salt_datum(self, candidate: int, ctx: Any, patch: Any) -> Any:
        """This candidate's settle key (picklable, hashable, orderable).

        The batch-level parameter the simulator would auto-detect for a
        batch holding only this candidate — for the bundled kernels the
        capped settle-pass count.  The engine batches only candidates
        with equal keys, so every batch derives exactly each member's
        own parameters and no verdict depends on its batchmates.  It
        must be a function of ``patch``, so that candidates of one
        collapse class share it.  The default (``0``) says observations
        are batch-composition independent: any candidates may share a
        batch.
        """
        return 0

    # -- golden-prefix fast-forward ----------------------------------------

    def fast_forward_cycle(self) -> int | None:
        """Cycle before which every candidate machine is golden.

        Models whose faults land at a known injection instant (SEU, MBU,
        half-latch: the warmup boundary) return it, and their context
        build may then start from the nearest golden state snapshot
        instead of replaying the fault-free prefix from cycle 0 — the
        restored state is byte-identical, so verdicts are too.  ``None``
        (default) opts out, like :attr:`collapsible` — models that
        observe the whole run (correlation, BIST) keep replaying.
        """
        return None

    def payload(self, observation: Any) -> np.ndarray | None:
        """Optional rich per-candidate result to retain beside the code.

        Non-``None`` values are collected into
        :attr:`~repro.engine.sweep.SweepResult.payloads`; they must be
        equal-shape numpy arrays for the sweep to be checkpointable
        (they are stacked into one block on save).  The default keeps
        nothing.
        """
        return None
