"""The fault-model protocol the campaign engine drives.

A fault model answers four questions — *what* could break
(:meth:`FaultModel.enumerate_candidates`), *which* candidates provably
cannot matter (:meth:`FaultModel.prefilter`), *how* a candidate perturbs
the hardware (:meth:`FaultModel.patch_for`), and *what* an observation
means (:meth:`FaultModel.classify`).  Everything else — batching,
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

Models must be **picklable** (they are shipped to worker processes) and
cheap to pickle: heavy per-process state — an implemented design, a
golden trace, a warm-state snapshot — is derived in
:meth:`FaultModel.build_context`, which the engine calls once per
process and caches (see :mod:`repro.engine.cache` for the shared
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
    behalf: candidates are pre-filtered in candidate order, survivors
    are grouped into consecutive ``batch_size`` batches, and shards cut
    only at batch boundaries — so any ``jobs=N`` produces the batches
    (and therefore verdicts) of ``jobs=1``.  A model only has to keep
    its own methods deterministic per candidate.
    """

    #: short identifier recorded in checkpoints ("seu", "mbu", ...)
    name: ClassVar[str] = "fault"

    #: opt out of fault collapsing entirely (e.g. models whose payloads
    #: depend on more than the patch); the engine then simulates every
    #: survivor itself regardless of the driver's ``collapse`` flag
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
        must be simulated.  A non-``None`` payload is the candidate's
        patch: when the observe phase runs in the same process
        (``jobs=1``) the engine reuses it instead of calling
        :meth:`patch_for`; pool and remote workers re-derive it with
        :meth:`patch_for` — payloads never cross processes.
        """
        return CODE_NOT_TESTED, None

    @abc.abstractmethod
    def patch_for(self, candidate: int, ctx: Any) -> Any:
        """The candidate's hardware perturbation (simulator patch)."""

    @abc.abstractmethod
    def observe_batch(self, ctx: Any, pending: list[tuple[int, Any]]) -> list[Any]:
        """Simulate one batch of ``(candidate, patch)`` survivors.

        Returns one observation per entry, aligned with ``pending``.
        Batch composition alone may influence marginal observations
        (settle passes, active-node closure) — the engine guarantees
        composition is identical for every worker count.
        """

    @abc.abstractmethod
    def classify(self, observation: Any) -> int:
        """Map one observation to its verdict code (>= 4)."""

    # -- fault collapsing ---------------------------------------------------
    #
    # A candidate's observation is a pure function of (its patch, the
    # batch-level simulation parameters its original batch would have
    # derived).  Collapsing exploits this: candidates with equal
    # signatures AND equal *salts* (the derived batch parameters, e.g.
    # auto-detected settle passes) form one equivalence class; the
    # engine simulates a single representative per class — grouped with
    # same-salt representatives and forced to that salt via
    # ``observe_collapsed`` — and fans the observation out.

    def collapse_signature(self, candidate: int, ctx: Any, patch: Any) -> Any:
        """Hashable equivalence-class key of this candidate's patch.

        ``None`` opts the candidate out (it is always simulated).  The
        default derives it from the patch itself; override only when
        the observation depends on more than the patch.
        """
        return default_patch_signature(patch)

    def collapse_salt_datum(self, candidate: int, ctx: Any, patch: Any) -> Any:
        """Per-candidate input to :meth:`collapse_salt` (picklable)."""
        return None

    def collapse_salt(self, ctx: Any, data: list[Any]) -> Any:
        """Batch-level simulation parameters a naive batch would derive.

        ``data`` holds the :meth:`collapse_salt_datum` of every survivor
        the naive engine would have grouped into one batch.  The return
        value must be hashable; representatives are regrouped per salt
        and simulated via :meth:`observe_collapsed` with the salt forced,
        so regrouping cannot change any observation.  ``None`` (default)
        says observations are batch-composition independent.
        """
        return None

    def observe_collapsed(self, ctx: Any, pending: list[tuple[int, Any]], salt: Any) -> list[Any]:
        """Simulate one batch of collapse-class representatives.

        ``salt`` is the :meth:`collapse_salt` every entry's original
        batch would have derived; implementations must force their
        batch-level parameters to it instead of re-deriving them from
        this (regrouped) batch.  The default ignores the salt — correct
        only for models whose :meth:`collapse_salt` is constant.
        """
        return self.observe_batch(ctx, pending)

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
