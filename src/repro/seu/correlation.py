"""Bitstream-location x output-error correlation (paper section III-A).

"By repeated exhaustive tests, it is possible to correlate a single-bit
upset in the bitstream with an output error.  Such a correlation table
was developed for our example designs.  High correlation between
specific locations in the bit stream and output area helps to
characterize the sensitive cross-section of the design."

:func:`build_correlation_table` re-runs the sensitive bits of a campaign
and records *which output bits* each upset disturbs; the resulting
:class:`OutputCorrelation` answers the designer's questions: which
outputs does frame F endanger, and which bitstream region must I harden
to protect output k (the input to selective TMR).

The sweep runs on the shared campaign engine (:mod:`repro.engine`),
using its *payload* channel to retain the per-bit disturbed-output mask
beside the verdict code — which is what gives this table ``jobs=N``
process sharding and checkpoint/resume for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.engine.cache import implemented_design, prime_design_cache
from repro.engine.detect import detect_disturbed_outputs
from repro.engine.model import CODE_FAIL, CODE_NO_EFFECT, FaultModel
from repro.engine.sweep import run_sweep
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError
from repro.netlist.compiled import Patch
from repro.netlist.cone import restrict
from repro.netlist.simulator import settle_key
from repro.place.flow import HardwareDesign
from repro.seu.campaign import (
    CampaignConfig,
    CampaignContext,
    CampaignResult,
    build_context,
)

__all__ = ["OutputCorrelation", "CorrelationFaultModel", "build_correlation_table"]


@dataclass
class OutputCorrelation:
    """Sparse (sensitive bit -> affected output bits) table."""

    n_outputs: int
    #: linear config bit -> bool vector over outputs (True = disturbed)
    by_bit: dict[int, np.ndarray] = field(default_factory=dict)
    #: throughput record of the sweep that produced this table
    telemetry: CampaignTelemetry | None = None

    def outputs_of(self, linear_bit: int) -> np.ndarray:
        """Output indices disturbed by upsetting ``linear_bit``."""
        mask = self.by_bit.get(linear_bit)
        if mask is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(mask)

    def bits_endangering(self, output_index: int) -> list[int]:
        """Sensitive bits whose upset disturbs output ``output_index``."""
        if not 0 <= output_index < self.n_outputs:
            raise CampaignError(f"output {output_index} out of range")
        return sorted(
            bit for bit, mask in self.by_bit.items() if mask[output_index]
        )

    def output_cross_section(self) -> np.ndarray:
        """Per-output count of endangering bits — the paper's 'output
        area' correlation."""
        counts = np.zeros(self.n_outputs, dtype=np.int64)
        for mask in self.by_bit.values():
            counts += mask.astype(np.int64)
        return counts

    def fanin_histogram(self) -> dict[int, int]:
        """How many outputs a typical sensitive bit disturbs."""
        hist: dict[int, int] = {}
        for mask in self.by_bit.values():
            k = int(mask.sum())
            hist[k] = hist.get(k, 0) + 1
        return hist


@dataclass(frozen=True)
class CorrelationFaultModel(FaultModel):
    """Sensitive-bit re-run retaining the disturbed-output mask.

    Candidates are the campaign's sensitive bits; the observation is
    the accumulated per-output deviation mask over the full detect
    window (no early exit), kept as the engine payload.
    """

    spec: Any
    device_name: str
    config: CampaignConfig
    bits: tuple[int, ...]

    name: ClassVar[str] = "correlation"
    #: every candidate is an already-confirmed-sensitive bit, so classes
    #: are near-singletons and the fan-out would duplicate payload rows
    #: for no simulation saved — stay on the naive path
    collapsible: ClassVar[bool] = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", self.config.unbatched())

    def key(self) -> str:
        return (
            f"correlation:{self.spec.name}:{self.device_name}:"
            f"{len(self.bits)}@{hash(self.bits):x}:{self.config.key()}"
        )

    def _hw(self) -> HardwareDesign:
        return implemented_design(self.spec, self.device_name)

    def space_size(self) -> int:
        return int(self._hw().device.total_config_bits)

    def enumerate_candidates(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.int64)

    def build_context(self) -> tuple[HardwareDesign, CampaignContext]:
        hw = self._hw()
        # fast_forward_cycle() stays None (like collapsible above): the
        # correlation observation spans the whole run, so the context is
        # built on the cold path regardless of the ambient toggle.
        return hw, build_context(hw, self.config, fast_forward=False)

    def patch_for(self, candidate: int, ctx) -> Patch:
        hw, _ = ctx
        patch = hw.decoded.patch_for_bit(candidate)
        if patch is None:  # cannot happen for campaign-sensitive bits
            raise CampaignError(f"bit {candidate} no longer decodes to a fault")
        return patch

    def observe_batch(self, ctx, pending: list[tuple[int, Patch]]) -> list[np.ndarray]:
        _, cctx = ctx
        sim = restrict(cctx.design, [p for _, p in pending]).simulator(cctx.snapshot)
        disturbed = detect_disturbed_outputs(
            sim, cctx.post_stim, cctx.post_golden.outputs, self.config.detect_cycles
        )
        return [disturbed[i] for i in range(len(pending))]

    def collapse_salt_datum(self, candidate: int, ctx, patch: Patch) -> int:
        _, cctx = ctx
        return settle_key(cctx.design, patch)

    def classify(self, observation: np.ndarray) -> int:
        return CODE_FAIL if observation.any() else CODE_NO_EFFECT

    def payload(self, observation: np.ndarray) -> np.ndarray:
        return observation


def build_correlation_table(
    hw: HardwareDesign,
    result: CampaignResult,
    config: CampaignConfig | None = None,
    max_bits: int | None = None,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> OutputCorrelation:
    """Re-run each sensitive bit recording the disturbed output set.

    ``max_bits`` truncates the sweep for quick looks; the default
    processes every sensitive bit of the campaign.  Runs on the shared
    campaign engine: ``jobs=N`` shards bits over processes
    (the table is identical to ``jobs=1``), and
    ``checkpoint_path`` snapshots engine-native archives a killed sweep
    restarts from (``resume=True``).
    """
    config = config or result.config
    bits = [int(b) for b in result.sensitive_bits]
    if max_bits is not None:
        bits = bits[:max_bits]
    prime_design_cache(hw)
    model = CorrelationFaultModel(hw.spec, hw.device.name, config, tuple(bits))
    sweep = run_sweep(
        model, jobs, checkpoint_path, resume=resume, batch_size=config.batch_size
    )
    table = OutputCorrelation(
        n_outputs=hw.decoded.design.n_outputs, telemetry=sweep.telemetry
    )
    for bit in bits:
        table.by_bit[bit] = sweep.payloads[bit]
    return table
