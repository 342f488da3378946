"""Fault-injection campaigns: the paper's Figure 8 loop, vectorised.

For every candidate configuration bit the campaign:

1. computes the sparse hardware difference of the flip
   (:meth:`DecodedDesign.patch_for_bit`) — bits that decode to nothing
   (reserved fields, unused fabric) are skipped without simulation;
2. drops patches that cannot reach the output cone, and LUT-content
   flips on truth-table entries the golden run never addresses (the
   equivalence argument is in the method docs);
3. batches the survivors into lock-step
   :class:`~repro.netlist.simulator.BatchSimulator` runs that detect the
   first output error, repair the configuration without reset, and
   classify persistence.

The sweep machinery — batching, process sharding, checkpoint/resume,
merging, telemetry — lives in the fault-model-agnostic engine
(:mod:`repro.engine`); this module contributes the *SEU fault model*
(:class:`SEUFaultModel`) and keeps the historical public API:
:func:`build_context` derives the per-(design, config) artifacts (golden
trace, warm-state snapshot), :func:`classify_candidate` is the
structural pre-filter for one bit, and :func:`simulate_batch` runs one
batch of survivors to verdicts.  Checkpoints are the engine's
:func:`~repro.engine.sweep.save_sweep` archives, as for every other
fault model; :func:`resume_campaign` reads the campaign's config back
from the archive's model key.  A finished sweep becomes a
:class:`CampaignResult` in one place, :func:`_from_sweep`.

A separate campaign (:func:`run_halflatch_campaign`) sweeps the *hidden*
half-latch state — the cross-section readback cannot see, which drives
the beam-validation residual (paper section III-C).  It rides the same
engine via :class:`HalfLatchFaultModel`, so it shares ``jobs=N``
sharding and checkpoint/resume with the single-bit sweep.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import pickle
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.engine.cache import (
    SNAPSHOT_STRIDE,
    cached_golden_pack,
    content_key,
    implemented_design,
    prime_design_cache,
    store_golden_pack,
)
from repro.engine.detect import detect_failures
from repro.engine.model import (
    CODE_FAIL,
    CODE_NO_EFFECT,
    CODE_NOT_TESTED,
    CODE_SKIP_CONE,
    FaultModel,
)
from repro.engine.sweep import SweepResult, _checkpoint_model_key, run_sweep
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError
from repro.fpga.resources import ResourceKind
from repro.netlist.compiled import CompiledDesign, Patch
from repro.netlist.cone import restrict
from repro.netlist.simulator import (
    KERNEL_COUNTERS,
    BatchSimulator,
    GoldenTrace,
    MachineVerdict,
    settle_key,
)
from repro.place.flow import HardwareDesign

__all__ = [
    "BitVerdict",
    "CampaignConfig",
    "CampaignContext",
    "CampaignResult",
    "CampaignTelemetry",
    "SEUFaultModel",
    "HalfLatchFaultModel",
    "build_context",
    "classify_candidate",
    "simulate_batch",
    "run_campaign",
    "run_halflatch_campaign",
    "run_halflatch_sweep",
    "resume_campaign",
]


class BitVerdict(enum.IntEnum):
    """Per-bit campaign outcome.

    Codes 0-3 follow the engine-wide convention of
    :mod:`repro.engine.model`; codes 4-6 are the SEU model's simulated
    outcomes.
    """

    NOT_TESTED = 0  #: outside the candidate set
    SKIP_STRUCTURAL = 1  #: flip does not alter the decoded hardware
    SKIP_CONE = 2  #: alteration cannot reach the outputs
    SKIP_UNADDRESSED = 3  #: LUT entry never addressed by the golden run
    NO_EFFECT = 4  #: simulated; outputs never deviated
    FAIL_TRANSIENT = 5  #: output error; scrubbing alone recovers
    FAIL_PERSISTENT = 6  #: output error; survives repair, needs reset


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign run.

    The cycle counts mirror the SLAAC-1V protocol: the design runs
    ``warmup_cycles`` before injection (faults hit a *running* design),
    is observed for ``detect_cycles``, then — after the frame repair —
    for ``persist_cycles`` more; ``converge_run`` matching cycles close
    a transient verdict.
    """

    warmup_cycles: int = 32
    detect_cycles: int = 160
    persist_cycles: int = 96
    converge_run: int = 8
    batch_size: int = 128
    seed: int = 0
    classify_persistence: bool = True
    #: test only every k-th candidate bit (1 = exhaustive)
    stride: int = 1

    @property
    def total_cycles(self) -> int:
        return self.warmup_cycles + self.detect_cycles + self.persist_cycles

    def key(self) -> str:
        """JSON of the fields a verdict depends on, for fault-model keys.

        ``batch_size`` is left out: no verdict depends on batching, so a
        checkpoint written at one batch size resumes at any other.
        """
        fields = dataclasses.asdict(self)
        del fields["batch_size"]
        return json.dumps(fields, sort_keys=True)

    @classmethod
    def from_key(cls, key: str) -> CampaignConfig:
        """Inverse of :meth:`key`; ``batch_size`` is the default."""
        return cls(**json.loads(key))

    def unbatched(self) -> CampaignConfig:
        """This config with ``batch_size`` at its default.

        Fault models hold this form: batching is the driver's argument,
        and a model's pickle keys the whole-sweep result cache, so a
        repeat at another batch size is served from it.
        """
        return dataclasses.replace(self, batch_size=CampaignConfig.batch_size)


@dataclass
class CampaignResult:
    """Aggregate of one campaign."""

    design_name: str
    device_name: str
    config: CampaignConfig
    n_candidates: int
    verdicts: np.ndarray  # (n_bits_total,) uint8 of BitVerdict
    candidate_bits: np.ndarray  # linear indices tested
    #: sensitive-bit count per resource kind
    by_kind: dict[ResourceKind, int] = field(default_factory=dict)
    host_seconds: float = 0.0
    n_simulated: int = 0
    #: throughput record of the run that produced this result (not merged)
    telemetry: CampaignTelemetry | None = None

    @property
    def sensitive_bits(self) -> np.ndarray:
        """Linear indices of bits whose upset caused an output error."""
        mask = (self.verdicts == BitVerdict.FAIL_TRANSIENT) | (
            self.verdicts == BitVerdict.FAIL_PERSISTENT
        )
        return np.flatnonzero(mask)

    @property
    def persistent_bits(self) -> np.ndarray:
        return np.flatnonzero(self.verdicts == BitVerdict.FAIL_PERSISTENT)

    @property
    def n_failures(self) -> int:
        return int(self.sensitive_bits.size)

    @property
    def sensitivity(self) -> float:
        """Design failures / configuration upsets (Table I definition)."""
        if self.n_candidates == 0:
            return 0.0
        return self.n_failures / self.n_candidates

    @property
    def persistence_ratio(self) -> float:
        """Persistent bits per sensitive bit (Table II definition)."""
        if self.n_failures == 0:
            return 0.0
        return int(self.persistent_bits.size) / self.n_failures

    def summary(self) -> str:
        return (
            f"{self.design_name}: {self.n_failures}/{self.n_candidates} sensitive "
            f"({100 * self.sensitivity:.2f}%), persistence "
            f"{100 * self.persistence_ratio:.1f}%, simulated {self.n_simulated}, "
            f"host {self.host_seconds:.1f}s"
        )


def _candidate_bits(hw: HardwareDesign, config: CampaignConfig) -> np.ndarray:
    """The paper sweeps the whole (block-0) bitstream; BRAM content is
    masked out of readback-based campaigns."""
    n = hw.device.block0_bits
    return np.arange(0, n, config.stride, dtype=np.int64)


@dataclass
class CampaignContext:
    """Artifacts derived once per (design, config) and shared by every
    shard of a campaign: the golden trace, the warm-state snapshot at the
    injection instant, the post-injection stimulus/reference, and the
    golden address-suffix masks fault dropping proves retirements with
    (``addr_suffix[t]`` ORs every LUT address golden exercises from
    post-injection cycle ``t`` onward)."""

    design: CompiledDesign
    golden: GoldenTrace
    snapshot: np.ndarray
    post_stim: np.ndarray
    post_golden: GoldenTrace
    addr_suffix: np.ndarray | None = None


def _golden_pack_key(design, stim: np.ndarray) -> str:
    """Content address of one (design, stimulus) golden run; the stride
    its snapshots are spaced by is in the hash too."""
    return content_key("golden-pack", pickle.dumps(design), stim, SNAPSHOT_STRIDE)


def build_context(
    hw: HardwareDesign,
    config: CampaignConfig,
    fast_forward: bool = True,
) -> CampaignContext:
    """Derive the shared campaign artifacts for one (design, config).

    With ``fast_forward`` (the models' path whenever their faults land
    at the warmup boundary) the golden run records state snapshots
    every :data:`~repro.engine.cache.SNAPSHOT_STRIDE` cycles and is kept
    in the golden-pack store, so the warm-state snapshot at the
    injection instant is restored from the nearest golden checkpoint
    (replaying only the residual prefix) and repeat context builds —
    second sweeps, every worker process after the first on a shared
    store, resumed runs — skip the full-stimulus golden simulation
    entirely.  Node values fully determine future evolution given the
    stimulus, so both shortcuts are byte-identical to the cold path
    (``fast_forward=False``: golden run and warmup replay from cycle 0).
    """
    design = hw.decoded.design
    stim = hw.spec.stimulus(config.total_cycles, config.seed)
    if fast_forward:
        key = _golden_pack_key(design, stim)
        golden = cached_golden_pack(key)
        if golden is None:
            golden = BatchSimulator.golden_trace(
                design, stim, record_addr_rows=True, snapshot_stride=SNAPSHOT_STRIDE
            )
            store_golden_pack(key, golden)
        else:
            # The whole golden simulation was served from the pack store.
            KERNEL_COUNTERS.ff_cycles_skipped += golden.n_cycles
        start, state = golden.nearest_snapshot(config.warmup_cycles)
        if start == config.warmup_cycles and state is not None:
            snapshot = state.copy()
        else:
            warm_sim = BatchSimulator(design, initial_values=state)
            warm_sim.run(stim[start : config.warmup_cycles])
            snapshot = warm_sim.state_snapshot()
        KERNEL_COUNTERS.ff_cycles_skipped += start
    else:
        golden = BatchSimulator.golden_trace(design, stim, record_addr_rows=True)
        # Snapshot the running state at the injection instant.
        warm_sim = BatchSimulator(design)
        warm_sim.run(stim[: config.warmup_cycles])
        snapshot = warm_sim.state_snapshot()
    post_stim = stim[config.warmup_cycles :]
    post_golden = GoldenTrace(
        golden.outputs[config.warmup_cycles :], golden.addr_seen, golden.final_state
    )
    # Reverse-cumulative OR of the post-injection per-cycle address
    # masks: row t covers everything golden addresses from cycle t on,
    # and the final all-zero row says "nothing remains after the run".
    rows = golden.addr_rows[config.warmup_cycles :]
    n_post = int(rows.shape[0])
    addr_suffix = np.zeros((n_post + 1, design.n_luts), dtype=np.uint16)
    if n_post:
        addr_suffix[:n_post] = np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1]
    return CampaignContext(
        design, golden, snapshot, post_stim, post_golden, addr_suffix
    )


def classify_candidate(
    hw: HardwareDesign, ctx: CampaignContext, bit: int
) -> tuple[int, Patch | None]:
    """Structural pre-filter for one candidate bit.

    Returns ``(skip_verdict, None)`` when the flip provably cannot
    produce an output error, or ``(BitVerdict.NOT_TESTED, patch)`` when
    the bit survives and must be simulated.
    """
    patch = hw.decoded.patch_for_bit(bit)
    if patch is None:
        return int(BitVerdict.SKIP_STRUCTURAL), None
    if not hw.decoded.patch_is_relevant(patch):
        return int(BitVerdict.SKIP_CONE), None
    if _lut_content_skip(patch, hw, ctx.golden.addr_seen):
        return int(BitVerdict.SKIP_UNADDRESSED), None
    return int(BitVerdict.NOT_TESTED), patch


def simulate_batch(
    config: CampaignConfig,
    ctx: CampaignContext,
    pending: list[tuple[int, Patch]],
    retire: bool = True,
) -> list[int]:
    """Simulate one batch of pre-filter survivors to per-bit verdicts.

    ``pending`` is the ordered ``(bit, patch)`` list of one batch; the
    returned verdict codes align with it.  The engine batches only bits
    with equal :func:`~repro.netlist.simulator.settle_key`, so the
    auto-detected settle count is each bit's own.  The batch runs on
    the sub-design its outputs can observe
    (:func:`~repro.netlist.cone.restrict`).  ``retire`` is the
    kernel's mid-run fault dropping (adds a golden companion machine to
    the batch); sweeps always run it, and ``retire=False`` is the
    verdict-identical reference path.
    """
    sub = restrict(ctx.design, [p for _, p in pending])
    sim = sub.simulator(ctx.snapshot, companion=retire)
    machine_verdicts = sim.run_verdicts(
        ctx.post_stim,
        ctx.post_golden,
        config.detect_cycles,
        config.persist_cycles if config.classify_persistence else 0,
        config.converge_run,
        retire=retire,
        addr_suffix=ctx.addr_suffix[:, sub.lut_rows] if retire else None,
    )
    return _verdict_codes(config, machine_verdicts)


def _verdict_codes(config: CampaignConfig, machine_verdicts: list[MachineVerdict]) -> list[int]:
    """Per-bit :class:`BitVerdict` codes of one batch's machine verdicts."""
    codes: list[int] = []
    for mv in machine_verdicts:
        if not mv.failed:
            codes.append(int(BitVerdict.NO_EFFECT))
        elif mv.persistent and config.classify_persistence:
            codes.append(int(BitVerdict.FAIL_PERSISTENT))
        else:
            codes.append(int(BitVerdict.FAIL_TRANSIENT))
    return codes


def _lut_content_skip(patch: Patch, hw: HardwareDesign, addr_seen: np.ndarray) -> bool:
    """True when the patch flips only LUT entries never addressed.

    Sound because a machine identical to golden except in unaddressed
    truth-table entries stays cycle-identical by induction: equal state
    produces equal addresses, which never reach a differing entry.
    """
    flips = patch.table_flips(hw.decoded.design.lut_tables)
    return flips is not None and not any(
        addr_seen[row] & mask for row, mask in flips.items()
    )


def _by_kind(hw: HardwareDesign, sensitive_bits: np.ndarray) -> dict[ResourceKind, int]:
    """Per-resource-kind breakdown of sensitive bits.

    The frame lookup is vectorised: one ``searchsorted`` over the
    monotone frame-offset table instead of a binary search per bit.
    """
    bits = np.asarray(sensitive_bits, dtype=np.int64)
    out: dict[ResourceKind, int] = {}
    if bits.size == 0:
        return out
    offsets = np.asarray(hw.bitstream.geometry.frame_offsets)
    frames = np.searchsorted(offsets, bits, side="right") - 1
    offs = bits - offsets[frames]
    classify = hw.device.classify_bit
    for frame, off in zip(frames.tolist(), offs.tolist()):
        kind = classify(frame, off).kind
        out[kind] = out.get(kind, 0) + 1
    return out


# -- the SEU fault model -------------------------------------------------------


@dataclass(frozen=True)
class SEUFaultModel(FaultModel):
    """Single-bit configuration upsets, as seen by the campaign engine.

    Candidates are linear block-0 bitstream indices; the pre-filter is
    :func:`classify_candidate`, run by :meth:`prefilter_chunk` on live
    bits only (dead bits are settled by one gather of
    :attr:`~repro.place.decoder.DecodedDesign.live_bits`); the observation is
    :func:`simulate_batch`'s inject/observe/repair/classify verdict.
    Picklable by construction: heavy state (the implemented design, the
    golden trace, the warm snapshot) is derived per process in
    :meth:`build_context` through the shared implemented-design cache.
    """

    spec: Any
    device_name: str
    config: CampaignConfig

    name: ClassVar[str] = "seu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", self.config.unbatched())

    def key(self) -> str:
        return (
            f"seu:{self.spec.name}:{self.device_name}:{self.config.key()}"
        )

    def space_size(self) -> int:
        return int(self._hw().device.total_config_bits)

    def enumerate_candidates(self) -> np.ndarray:
        return _candidate_bits(self._hw(), self.config)

    def _hw(self) -> HardwareDesign:
        return implemented_design(self.spec, self.device_name)

    def fast_forward_cycle(self) -> int | None:
        # Every machine is golden until the upset lands at the warmup
        # boundary, so context builds may start from a golden snapshot.
        return self.config.warmup_cycles

    def build_context(self) -> tuple[HardwareDesign, CampaignContext]:
        hw = self._hw()
        return hw, build_context(hw, self.config, self.fast_forward_cycle() is not None)

    def prefilter(self, candidate: int, ctx) -> tuple[int, Patch | None]:
        hw, cctx = ctx
        return classify_candidate(hw, cctx, candidate)

    def prefilter_chunk(
        self, cands: np.ndarray, ctx
    ) -> tuple[np.ndarray, list[tuple[int, Patch | None]]]:
        # Most bits are dead (``live_bits`` False): their flips decode to
        # nothing, which is what classify_candidate would find one bit at
        # a time.  Settle them with one gather; only live bits, and
        # out-of-range ids (which raise there), take the per-bit loop.
        live = ctx[0].decoded.live_bits
        in_range = (cands >= 0) & (cands < live.size)
        per_bit = ~in_range
        per_bit[in_range] = live[cands[in_range]]
        codes = np.full(cands.size, BitVerdict.SKIP_STRUCTURAL, dtype=np.uint8)
        codes[per_bit], survivors = super().prefilter_chunk(cands[per_bit], ctx)
        return codes, survivors

    def patch_for(self, candidate: int, ctx) -> Patch:
        hw, _ = ctx
        return hw.decoded.patch_for_bit(candidate)

    def observe_batch(self, ctx, pending: list[tuple[int, Patch]]) -> list[int]:
        _, cctx = ctx
        return simulate_batch(self.config, cctx, pending)

    def collapse_salt_datum(self, candidate: int, ctx, patch: Patch) -> int:
        _, cctx = ctx
        return settle_key(cctx.design, patch)

    def classify(self, observation: int) -> int:
        return int(observation)


def _from_sweep(
    hw: HardwareDesign, config: CampaignConfig, sweep: SweepResult
) -> CampaignResult:
    """Materialise an engine sweep as the historical result type.

    The one conversion from the engine's result: it runs once per
    returned result, never per checkpoint.
    """
    result = CampaignResult(
        design_name=hw.spec.name,
        device_name=hw.device.name,
        config=config,
        n_candidates=sweep.n_candidates,
        verdicts=sweep.verdicts,
        candidate_bits=sweep.candidate_ids,
        host_seconds=sweep.host_seconds,
        n_simulated=sweep.n_simulated,
        telemetry=sweep.telemetry,
    )
    result.by_kind = _by_kind(hw, result.sensitive_bits)
    return result


def run_campaign(
    hw: HardwareDesign,
    config: CampaignConfig | None = None,
    candidate_bits: np.ndarray | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 50_000,
    jobs: int | None = 1,
    executor: Executor | None = None,
    shards_per_job: int = 4,
) -> CampaignResult:
    """Exhaustive (or strided) single-bit SEU campaign over one design.

    With ``checkpoint_path`` the campaign snapshots the partial sweep to
    disk as an engine archive (:func:`~repro.engine.sweep.save_sweep`)
    as it goes (every ``checkpoint_every`` simulated survivors, per
    shard under a pool, and once more at the end), so a multi-hour sweep
    killed mid-run resumes with :func:`resume_campaign` instead of
    starting over.

    ``jobs`` shards the sweep over worker processes (``None`` uses every
    CPU) with verdicts byte-identical to ``jobs=1``, because shards cut
    only at ``config.batch_size`` boundaries; an external ``executor``
    (e.g. a shared pool) is used as-is and not shut down, and
    ``shards_per_job`` sets how many shards each worker gets.
    """
    config = config or CampaignConfig()
    prime_design_cache(hw)
    # No pre-built context: the driver consults the whole-sweep result
    # cache *before* building one (model.build_context reuses the primed
    # implemented design), so a warm repeat sweep never pays for the
    # golden run at all.
    sweep = run_sweep(
        SEUFaultModel(hw.spec, hw.device.name, config),
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        batch_size=config.batch_size,
        candidates=candidate_bits,
        checkpoint_every=checkpoint_every,
        executor=executor,
        shards_per_job=shards_per_job,
    )
    return _from_sweep(hw, config, sweep)


def _checkpoint_model(hw: HardwareDesign, checkpoint_path: str) -> SEUFaultModel:
    """The SEU model of ``hw`` a campaign checkpoint was written for.

    The config is read back from the archive's model key
    (:meth:`SEUFaultModel.key`), so a resume needs no flags;
    ``batch_size`` is in no key and comes back as the default.
    """
    key = _checkpoint_model_key(checkpoint_path)
    prefix = f"seu:{hw.spec.name}:{hw.device.name}:"
    if not key.startswith(prefix):
        raise CampaignError(
            f"checkpoint {checkpoint_path!r} is for {key!r}, not an SEU "
            f"campaign of {hw.spec.name}/{hw.device.name}"
        )
    try:
        config = CampaignConfig.from_key(key[len(prefix) :])
    except (TypeError, ValueError) as err:
        raise CampaignError(
            f"checkpoint {checkpoint_path!r}: unreadable campaign config in "
            f"model key {key!r}: {err}"
        ) from None
    return SEUFaultModel(hw.spec, hw.device.name, config)


def resume_campaign(
    hw: HardwareDesign, checkpoint_path: str, **run_settings: Any
) -> CampaignResult:
    """Resume an interrupted campaign from its checkpoint.

    Takes the config from the checkpoint (:func:`_checkpoint_model`)
    and resumes it with :func:`~repro.engine.sweep.run_sweep`, whose
    keywords ``run_settings`` are (``jobs``, ``batch_size``,
    ``checkpoint_every``, ``executor``, ``shards_per_job``): every bit
    that already has a verdict is skipped, the remainder runs
    (checkpointing to the same file as it goes), and the two merge.  No
    verdict depends on which bits share a batch, so the merged result
    is identical to a never-killed sweep, whatever run settings either
    run used.
    """
    prime_design_cache(hw)
    model = _checkpoint_model(hw, checkpoint_path)
    sweep = run_sweep(model, checkpoint_path=checkpoint_path, resume=True, **run_settings)
    return _from_sweep(hw, model.config, sweep)


# -- the half-latch fault model ------------------------------------------------


@dataclass(frozen=True)
class HalfLatchFaultModel(FaultModel):
    """Hidden half-latch upsets (paper Figures 13-14), engine model.

    Candidates are node ids; the upset pins the node to 0.  These
    upsets are invisible to readback and unrepaired by partial
    reconfiguration, so the sweep runs detect-only, with no repair
    phase.  Const patches never violate the evaluation schedule, so
    every candidate has the default settle key and any grouping is
    sound.
    """

    spec: Any
    device_name: str
    config: CampaignConfig
    nodes: tuple[int, ...] | None = None

    name: ClassVar[str] = "halflatch"

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", self.config.unbatched())

    def key(self) -> str:
        nodes_part = (
            "all" if self.nodes is None else f"{len(self.nodes)}@{hash(self.nodes):x}"
        )
        return (
            f"halflatch:{self.spec.name}:{self.device_name}:{nodes_part}:"
            f"{self.config.key()}"
        )

    def _hw(self) -> HardwareDesign:
        return implemented_design(self.spec, self.device_name)

    def space_size(self) -> int:
        return int(self._hw().decoded.design.n_nodes)

    def enumerate_candidates(self) -> np.ndarray:
        if self.nodes is not None:
            return np.asarray(self.nodes, dtype=np.int64)
        return np.asarray(self._hw().decoded.design.half_latch_nodes, dtype=np.int64)

    def fast_forward_cycle(self) -> int | None:
        # The pin-to-0 upset lands at the warmup boundary like an SEU.
        return self.config.warmup_cycles

    def build_context(self) -> tuple[HardwareDesign, CampaignContext]:
        hw = self._hw()
        return hw, build_context(hw, self.config, self.fast_forward_cycle() is not None)

    def prefilter(self, candidate: int, ctx) -> tuple[int, None]:
        hw, _ = ctx
        # Only nodes inside the output cone can matter; skip the rest.
        if not hw.decoded.node_in_cone(candidate):
            return CODE_SKIP_CONE, None
        return CODE_NOT_TESTED, None

    def patch_for(self, candidate: int, ctx) -> Patch:
        return Patch(consts=[(candidate, 0)])

    def observe_batch(self, ctx, pending: list[tuple[int, Patch]]) -> list[bool]:
        _, cctx = ctx
        sim = restrict(cctx.design, [p for _, p in pending]).simulator(cctx.snapshot)
        failed = detect_failures(
            sim,
            cctx.post_stim,
            cctx.post_golden.outputs,
            self.config.detect_cycles,
            retire=True,
        )
        return [bool(f) for f in failed]

    def classify(self, observation: bool) -> int:
        return CODE_FAIL if observation else CODE_NO_EFFECT


def run_halflatch_sweep(
    hw: HardwareDesign,
    config: CampaignConfig | None = None,
    nodes: np.ndarray | None = None,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Half-latch sweep as a full engine result (verdicts + telemetry).

    Runs on the shared campaign engine: ``jobs=N`` shards the node set
    over processes with verdicts identical to ``jobs=1``, and
    ``checkpoint_path`` snapshots engine-native archives a killed sweep
    restarts from (``resume=True``).
    """
    config = config or CampaignConfig()
    prime_design_cache(hw)
    model = HalfLatchFaultModel(
        hw.spec,
        hw.device.name,
        config,
        None if nodes is None else tuple(int(n) for n in np.asarray(nodes).ravel()),
    )
    return run_sweep(
        model, jobs, checkpoint_path, resume=resume, batch_size=config.batch_size
    )


def run_halflatch_campaign(
    hw: HardwareDesign,
    config: CampaignConfig | None = None,
    nodes: np.ndarray | None = None,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
) -> dict[int, bool]:
    """Sweep half-latch (hidden-state) upsets: node -> caused an error?

    The historical dict-shaped view of :func:`run_halflatch_sweep`
    (which exposes the engine verdicts and telemetry).
    """
    sweep = run_halflatch_sweep(
        hw,
        config,
        nodes=nodes,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        resume=resume,
    )
    if nodes is None:
        nodes = hw.decoded.design.half_latch_nodes
    return {
        int(n): bool(sweep.verdicts[int(n)] == CODE_FAIL)
        for n in np.asarray(nodes, dtype=np.int64)
    }
