"""Hard-fault coverage analysis across the BIST suite.

Runs a fault list through the CLB test configurations and reports which
test caught which fault — the "maximum coverage and isolation of hard
faults with a minimum number of configurations" objective of paper
section II-B.

The sweep runs on the shared campaign engine (:mod:`repro.engine`): a
candidate is one hard fault, the observation is the pair of
error-latch verdicts from the two complementary CLB test variants, and
the engine contributes structural pre-filtering (faults that patch
nothing in either variant are latent by construction), ``jobs=N``
process sharding, checkpoint/resume and :class:`CampaignTelemetry`.
The engine batches faults only with others of the same per-variant
settle key, so each machine's detection is its batch-of-one detection
and any grouping yields the same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha1
from typing import ClassVar

import numpy as np

from repro.bist.faults import StuckAtFault, fault_patch
from repro.bist.patterns import clb_test_design
from repro.engine.cache import implemented_design
from repro.engine.detect import detect_failures
from repro.engine.model import CODE_NOT_TESTED, CODE_SKIP_STRUCTURAL, FaultModel
from repro.engine.sweep import SweepResult, run_sweep
from repro.engine.telemetry import CampaignTelemetry
from repro.fpga.device import VirtexDevice
from repro.netlist.compiled import Patch
from repro.netlist.cone import restrict
from repro.netlist.simulator import BatchSimulator, settle_key

__all__ = ["CoverageReport", "BistCoverageModel", "run_coverage"]

#: simulated, neither variant's error latch fired
CODE_UNDETECTED = 4
#: detected by variant 0 only
CODE_DETECTED_V0 = 5
#: detected by variant 1 only
CODE_DETECTED_V1 = 6
#: detected by both variants
CODE_DETECTED_BOTH = 7


@dataclass
class CoverageReport:
    """Which configuration detected which fault."""

    n_faults: int
    n_configurations: int
    detected_by: dict[str, list[str]] = field(default_factory=dict)  # config -> faults
    undetected: list[str] = field(default_factory=list)
    #: throughput record of the sweep that produced this report
    telemetry: CampaignTelemetry | None = None

    @property
    def n_detected(self) -> int:
        return self.n_faults - len(self.undetected)

    @property
    def coverage(self) -> float:
        return self.n_detected / self.n_faults if self.n_faults else 1.0

    def summary(self) -> str:
        return (
            f"{self.n_detected}/{self.n_faults} faults detected "
            f"({100 * self.coverage:.1f}%) by {self.n_configurations} configurations"
        )


@dataclass(frozen=True)
class BistCoverageModel(FaultModel):
    """Hard faults vs the two complementary CLB test variants.

    A candidate is the index of one :class:`StuckAtFault`; its patch is
    the *pair* of per-variant simulator patches, and the observation is
    the pair of error-latch verdicts.  Detection = the configuration's
    sticky error latch (any output) deviates from golden.
    """

    device_name: str
    faults: tuple[StuckAtFault, ...]
    n_register_pairs: int
    cycles: int

    name: ClassVar[str] = "bist-coverage"

    def key(self) -> str:
        digest = sha1(
            ";".join(str(f) for f in self.faults).encode()
        ).hexdigest()[:12]
        return (
            f"bist-coverage:{self.device_name}:pairs={self.n_register_pairs}:"
            f"cycles={self.cycles}:faults={len(self.faults)}@{digest}"
        )

    def space_size(self) -> int:
        return len(self.faults)

    def enumerate_candidates(self) -> np.ndarray:
        return np.arange(len(self.faults), dtype=np.int64)

    def variant_specs(self):
        return tuple(
            clb_test_design(self.n_register_pairs, register_bits=8, variant=v)
            for v in (0, 1)
        )

    def build_context(self):
        variants = []
        for spec in self.variant_specs():
            hw = implemented_design(spec, self.device_name)
            stim = hw.spec.stimulus(self.cycles, 0)
            golden = BatchSimulator.golden_trace(hw.decoded.design, stim)
            variants.append((hw, stim, golden))
        return tuple(variants)

    def prefilter(self, candidate: int, ctx) -> tuple[int, tuple[Patch, Patch] | None]:
        pair = self.patch_for(candidate, ctx)
        # A fault that patches nothing in either variant leaves both
        # machines golden-identical: latent by construction, no need to
        # simulate it.
        if all(p.is_empty() for p in pair):
            return CODE_SKIP_STRUCTURAL, None
        return CODE_NOT_TESTED, pair

    def patch_for(self, candidate: int, ctx) -> tuple[Patch, Patch]:
        fault = self.faults[candidate]
        return tuple(fault_patch(hw.decoded, fault) for hw, _, _ in ctx)

    def observe_batch(self, ctx, pending) -> list[tuple[bool, bool]]:
        hits = []
        for v, (hw, stim, golden) in enumerate(ctx):
            sim = restrict(hw.decoded.design, [pair[v] for _, pair in pending]).simulator()
            hits.append(
                detect_failures(sim, stim, golden.outputs, self.cycles, retire=True)
            )
        return [(bool(h0), bool(h1)) for h0, h1 in zip(*hits)]

    # Each variant's batch auto-detects its own settle count, so the key
    # is the pair of per-variant counts.
    def collapse_salt_datum(self, candidate: int, ctx, pair) -> tuple[int, ...]:
        return tuple(settle_key(hw.decoded.design, p) for (hw, _, _), p in zip(ctx, pair))

    def classify(self, observation: tuple[bool, bool]) -> int:
        hit0, hit1 = observation
        return CODE_UNDETECTED + int(hit0) + 2 * int(hit1)


def _report_from_sweep(
    model: BistCoverageModel, sweep: SweepResult
) -> CoverageReport:
    """Reconstruct the historical report shape from engine verdicts."""
    faults = model.faults
    codes = sweep.verdicts
    spec0, spec1 = model.variant_specs()
    report = CoverageReport(
        n_faults=len(faults), n_configurations=2, telemetry=sweep.telemetry
    )
    report.detected_by[spec0.name] = [
        str(f)
        for f, c in zip(faults, codes)
        if c in (CODE_DETECTED_V0, CODE_DETECTED_BOTH)
    ]
    report.detected_by[spec1.name] = [
        str(f)
        for f, c in zip(faults, codes)
        if c in (CODE_DETECTED_V1, CODE_DETECTED_BOTH)
    ]
    report.undetected = [
        str(f)
        for f, c in zip(faults, codes)
        if c not in (CODE_DETECTED_V0, CODE_DETECTED_V1, CODE_DETECTED_BOTH)
    ]
    return report


def run_coverage(
    device: VirtexDevice,
    faults: list[StuckAtFault],
    n_register_pairs: int = 4,
    cycles: int = 128,
    jobs: int = 1,
    batch_size: int = 128,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> CoverageReport:
    """Run both complementary CLB test variants over a fault list.

    Runs on the shared campaign engine: ``jobs=N`` shards faults over
    processes with a report identical to ``jobs=1``, and
    ``checkpoint_path`` snapshots engine-native archives a killed sweep
    restarts from (``resume=True``).
    """
    model = BistCoverageModel(device.name, tuple(faults), n_register_pairs, cycles)
    sweep = run_sweep(model, jobs, checkpoint_path, resume=resume, batch_size=batch_size)
    return _report_from_sweep(model, sweep)
