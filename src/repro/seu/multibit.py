"""Multiple-bit upset (MBU) campaigns — beyond the paper's assumption.

The paper keeps beam flux low so "SEUs ... are generally isolated
events", and the scrub loop likewise assumes at most one corrupted
frame per scan.  This extension measures what happens when that
assumption bends: inject *k* simultaneous configuration upsets and
compare the measured failure probability against the independence
prediction ``1 - (1 - s)^k`` from the single-bit sensitivity ``s``.
Interaction effects (two harmless bits conspiring, or two sensitive
bits masking) show up as the difference.

The sweep runs on the shared campaign engine (:mod:`repro.engine`): a
candidate is one trial (a pre-drawn k-bit upset set), the observation
is the packed-word detect kernel, and the engine contributes ``jobs=N``
process sharding, checkpoint/resume and :class:`CampaignTelemetry`.
The trial sets are drawn **once, sequentially, at context-build time**
from the historical ``derive_rng(seed, "mbu", design)`` stream, so
results are bit-identical to the original serial implementation for
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.engine.cache import implemented_design, prime_design_cache
from repro.engine.detect import detect_failures
from repro.engine.model import CODE_FAIL, CODE_NO_EFFECT, FaultModel
from repro.engine.sweep import SweepResult, resume_sweep, run_sweep
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError
from repro.netlist.compiled import Patch
from repro.netlist.cone import restrict
from repro.netlist.simulator import settle_key
from repro.place.flow import HardwareDesign
from repro.seu.campaign import (
    CampaignConfig,
    CampaignContext,
    build_context,
)
from repro.utils.rng import derive_rng

__all__ = ["MultiBitResult", "MBUFaultModel", "run_multibit_campaign"]


@dataclass
class MultiBitResult:
    """Failure statistics of k-bit simultaneous upsets."""

    k: int
    n_trials: int
    n_failures: int
    single_bit_sensitivity: float
    #: throughput record of the sweep that produced this result
    telemetry: CampaignTelemetry | None = None

    @property
    def failure_probability(self) -> float:
        return self.n_failures / self.n_trials if self.n_trials else 0.0

    @property
    def independence_prediction(self) -> float:
        """1 - (1 - s)^k under the no-interaction assumption."""
        return 1.0 - (1.0 - self.single_bit_sensitivity) ** self.k

    @property
    def interaction_excess(self) -> float:
        """Measured minus predicted failure probability."""
        return self.failure_probability - self.independence_prediction

    def summary(self) -> str:
        return (
            f"k={self.k}: {self.n_failures}/{self.n_trials} failed "
            f"({100 * self.failure_probability:.2f}%); independence predicts "
            f"{100 * self.independence_prediction:.2f}% "
            f"(excess {100 * self.interaction_excess:+.2f}%)"
        )


@dataclass(frozen=True)
class MBUFaultModel(FaultModel):
    """k simultaneous configuration upsets per trial, engine model.

    Each trial merges the k individual single-bit patches — the decoded
    semantics compose because each configuration bit's patch touches
    disjoint hardware except where the bits genuinely interact (e.g.
    two bits of one mux field, which the merge resolves
    last-writer-wins in patch order; such same-field pairs are rare at
    random and are the interaction being measured).
    """

    spec: Any
    device_name: str
    config: CampaignConfig
    k: int
    n_trials: int
    seed: int

    name: ClassVar[str] = "mbu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", self.config.unbatched())

    def key(self) -> str:
        return (
            f"mbu:{self.spec.name}:{self.device_name}:k={self.k}:"
            f"n={self.n_trials}:seed={self.seed}:{self.config.key()}"
        )

    def space_size(self) -> int:
        return self.n_trials

    def enumerate_candidates(self) -> np.ndarray:
        return np.arange(self.n_trials, dtype=np.int64)

    def fast_forward_cycle(self) -> int | None:
        # All k upsets of a trial land together at the warmup boundary.
        return self.config.warmup_cycles

    def build_context(self) -> tuple[HardwareDesign, CampaignContext, np.ndarray]:
        hw = implemented_design(self.spec, self.device_name)
        # Draw every trial's bit set sequentially from one stream — the
        # exact draw order of the historical serial loop, so trial t is
        # the same upset set no matter how trials are later sharded.
        rng = derive_rng(self.seed, "mbu", self.spec.name)
        trial_bits = np.stack(
            [
                rng.choice(hw.device.block0_bits, size=self.k, replace=False)
                for _ in range(self.n_trials)
            ]
        ) if self.n_trials else np.empty((0, self.k), dtype=np.int64)
        return (
            hw,
            build_context(hw, self.config, self.fast_forward_cycle() is not None),
            trial_bits,
        )

    def patch_for(self, candidate: int, ctx) -> Patch:
        hw, _, trial_bits = ctx
        merged = Patch()
        for b in trial_bits[candidate]:
            # Bits must be flipped together so same-CLB interactions
            # decode jointly: flip all, then compute patches one bit
            # at a time against the *partially corrupted* memory.
            p = hw.decoded.patch_for_bit(int(b))
            if p is not None:
                merged = merged.merged_with(p)
        return merged

    def observe_batch(self, ctx, pending: list[tuple[int, Patch]]) -> list[bool]:
        _, cctx, _ = ctx
        sim = restrict(cctx.design, [p for _, p in pending]).simulator(cctx.snapshot)
        failed = detect_failures(
            sim,
            cctx.post_stim,
            cctx.post_golden.outputs,
            self.config.detect_cycles,
            retire=True,
        )
        return [bool(f) for f in failed]

    # Trials whose k bits decode to identical (often empty) merged
    # patches collapse.
    def collapse_salt_datum(self, candidate: int, ctx, patch: Patch) -> int:
        _, cctx, _ = ctx
        return settle_key(cctx.design, patch)

    def classify(self, observation: bool) -> int:
        return CODE_FAIL if observation else CODE_NO_EFFECT


def run_multibit_campaign(
    hw: HardwareDesign,
    single_bit_sensitivity: float,
    k: int = 2,
    n_trials: int = 512,
    config: CampaignConfig | None = None,
    seed: int = 0,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> MultiBitResult:
    """Inject ``n_trials`` random k-bit upset sets; count output failures.

    Runs on the shared campaign engine: ``jobs=N`` shards trials over
    processes (the failure count is identical to ``jobs=1``), and
    ``checkpoint_path`` snapshots engine-native
    archives a killed sweep restarts from (``resume=True``).
    """
    if k < 1:
        raise CampaignError("k must be >= 1")
    config = config or CampaignConfig()
    prime_design_cache(hw)
    model = MBUFaultModel(hw.spec, hw.device.name, config, k, n_trials, seed)
    if resume:
        if checkpoint_path is None:
            raise CampaignError("resume requires a checkpoint path")
        sweep: SweepResult = resume_sweep(
            model,
            checkpoint_path,
            jobs=jobs,
            batch_size=config.batch_size,
        )
    else:
        sweep = run_sweep(
            model,
            jobs=jobs,
            batch_size=config.batch_size,
            checkpoint_path=checkpoint_path,
        )
    return MultiBitResult(
        k,
        n_trials,
        sweep.count(CODE_FAIL),
        single_bit_sensitivity,
        telemetry=sweep.telemetry,
    )
