"""Fault-model-agnostic campaign engine: one inject/observe/repair loop.

The paper's Figure 8 loop — enumerate fault candidates, pre-filter the
provably harmless ones, inject the survivors into a running design,
observe, classify — is the same loop whether the fault class is a
configuration SEU, a multi-bit upset, hidden half-latch state, or a
permanent defect hunted by BIST.  This package owns that loop once:

* :class:`~repro.engine.model.FaultModel` is the protocol a fault class
  implements — candidate enumeration, structural pre-filter, patch
  derivation, batch observation, verdict classification;
* :func:`~repro.engine.sweep.run_sharded` is the one driver — a
  two-phase pre-filter → observe sweep that owns batching, warm-state
  context, fault collapsing, checkpoint/resume and
  :class:`CampaignTelemetry`.  ``jobs=1`` runs its tasks in-process
  (:func:`~repro.engine.sweep.run_serial` is that alias); ``jobs=N``
  fans the same tasks out with verdicts byte-identical by construction;
* :mod:`~repro.engine.detect` holds the vectorised detect-only kernel
  (bit-packed output comparison, early exit) shared by every
  detect-classify fault model;
* :class:`~repro.engine.executor.ShardExecutor` owns the failure
  surface of pooled runs — retry with backoff, pool rebuild on worker
  death, speculative re-execution of stragglers, poison-shard
  quarantine — governed by an ambient
  :class:`~repro.engine.executor.ExecutorPolicy`, with
  :class:`~repro.engine.chaos.ChaosPolicy` as the deterministic fault
  injector that proves the recovery paths;
* :mod:`~repro.engine.backends` defines the
  :class:`~repro.engine.backends.ExecutorBackend` transport protocol
  the executor drives — :class:`~repro.engine.backends.LocalPoolBackend`
  wraps the process pool, :class:`~repro.engine.distributed.TcpBackend`
  fans shards out to ``repro worker`` processes over sockets with
  work-stealing assignment and elastic membership.

Domain packages (:mod:`repro.seu`, :mod:`repro.bist`) define thin
adapters: a :class:`FaultModel` subclass plus a public function that
preserves the historical API and result types.
"""

from repro.engine.backends import (
    ExecutorBackend,
    LocalPoolBackend,
    TaskDone,
    TaskFailed,
    WorkerJoined,
    WorkerLeft,
    WorkersLost,
    make_backend,
)
from repro.engine.cache import (
    BlobMissing,
    implemented_design,
    install_blob,
    prime_design_cache,
    resolve_blob,
)
from repro.engine.chaos import ChaosPolicy
from repro.engine.detect import detect_disturbed_outputs, detect_failures
from repro.engine.executor import (
    ExecutorPolicy,
    ShardExecutor,
    TaskSpec,
    executor_policy,
    get_executor_policy,
)
from repro.engine.model import (
    CODE_FAIL,
    CODE_NO_EFFECT,
    CODE_NOT_TESTED,
    CODE_SKIP_CONE,
    CODE_SKIP_STRUCTURAL,
    CODE_SKIP_UNADDRESSED,
    FaultModel,
)
from repro.engine.sweep import (
    SweepResult,
    default_jobs,
    load_sweep,
    merge_sweeps,
    run_serial,
    run_sharded,
    run_sweep,
    save_sweep,
    shard_survivors,
)
from repro.engine.telemetry import CampaignTelemetry

__all__ = [
    "CODE_NOT_TESTED",
    "CODE_SKIP_STRUCTURAL",
    "CODE_SKIP_CONE",
    "CODE_SKIP_UNADDRESSED",
    "CODE_NO_EFFECT",
    "CODE_FAIL",
    "FaultModel",
    "CampaignTelemetry",
    "SweepResult",
    "ChaosPolicy",
    "ExecutorPolicy",
    "ShardExecutor",
    "TaskSpec",
    "executor_policy",
    "get_executor_policy",
    "run_serial",
    "run_sharded",
    "run_sweep",
    "merge_sweeps",
    "save_sweep",
    "load_sweep",
    "shard_survivors",
    "default_jobs",
    "detect_failures",
    "detect_disturbed_outputs",
    "implemented_design",
    "prime_design_cache",
    "ExecutorBackend",
    "LocalPoolBackend",
    "make_backend",
    "TaskDone",
    "TaskFailed",
    "WorkersLost",
    "WorkerJoined",
    "WorkerLeft",
    "BlobMissing",
    "install_blob",
    "resolve_blob",
]
