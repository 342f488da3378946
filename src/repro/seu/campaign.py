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
batch of survivors to verdicts.  Results and checkpoints remain
:class:`CampaignResult` ``.npz`` archives; the tested bits are stored
as a packed mask (:func:`save_result`), and archives that list them
under ``candidate_bits`` also load.

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
import os
import pickle
import warnings
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.engine.cache import (
    cached_golden_pack,
    content_key,
    fast_forward_enabled,
    implemented_design,
    prime_design_cache,
    snapshot_stride,
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
from repro.engine.sweep import (
    SweepResult,
    decode_done,
    encode_done,
    resume_sweep,
    run_sharded,
    run_sweep,
)
from repro.engine.telemetry import CampaignTelemetry
from repro.errors import CampaignError
from repro.fpga.resources import ResourceKind
from repro.netlist.compiled import CompiledDesign, FFField, Patch
from repro.netlist.simulator import (
    KERNEL_COUNTERS,
    BatchSimulator,
    GoldenTrace,
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
    "batch_active_mask",
    "build_context",
    "classify_candidate",
    "simulate_batch",
    "run_campaign",
    "run_halflatch_campaign",
    "run_halflatch_sweep",
    "merge_results",
    "save_result",
    "load_result",
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


def _golden_pack_key(design, stim: np.ndarray, stride: int) -> str:
    """Content address of one (design, stimulus, stride) golden run."""
    return content_key("golden-pack-v1", pickle.dumps(design), stim, stride)


def build_context(
    hw: HardwareDesign,
    config: CampaignConfig,
    fast_forward: bool | None = None,
) -> CampaignContext:
    """Derive the shared campaign artifacts for one (design, config).

    With fast-forward on (the ambient default, see
    :func:`repro.engine.cache.fast_forward_enabled`; ``None`` defers to
    it) the golden run records state snapshots every
    ``REPRO_SNAPSHOT_STRIDE`` cycles and is kept in the golden-pack
    store, so the warm-state snapshot at the injection instant is
    restored from the nearest golden checkpoint (replaying only the
    residual prefix) and repeat context builds — second sweeps, every
    worker process after the first on a shared store, resumed runs —
    skip the full-stimulus golden simulation entirely.  Node values
    fully determine future evolution given the stimulus, so both
    shortcuts are byte-identical to the cold path.
    """
    design = hw.decoded.design
    stim = hw.spec.stimulus(config.total_cycles, config.seed)
    if fast_forward is None:
        fast_forward = fast_forward_enabled()
    if fast_forward:
        stride = snapshot_stride()
        key = _golden_pack_key(design, stim, stride)
        golden = cached_golden_pack(key)
        if golden is None:
            golden = BatchSimulator.golden_trace(
                design, stim, record_addr_rows=True, snapshot_stride=stride
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
    auto-detected settle count is each bit's own.  ``retire`` turns on mid-run fault dropping (verdict-identical; adds
    a golden companion machine to the batch).
    """
    patches = [p for _, p in pending]
    sim = BatchSimulator(
        ctx.design,
        patches,
        initial_values=ctx.snapshot,
        active_nodes=batch_active_mask(ctx.design, patches),
        companion=retire,
    )
    machine_verdicts = sim.run_verdicts(
        ctx.post_stim,
        ctx.post_golden,
        config.detect_cycles,
        config.persist_cycles if config.classify_persistence else 0,
        config.converge_run,
        retire=retire,
        addr_suffix=ctx.addr_suffix if retire else None,
    )
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
    if patch.lut_inputs or patch.ff_fields or patch.consts or patch.outputs:
        return False
    d = hw.decoded.design
    for row, table in patch.lut_tables:
        changed = np.flatnonzero(table ^ d.lut_tables[row])
        if changed.size == 0:
            continue
        mask = np.bitwise_or.reduce(np.left_shift(np.uint16(1), changed.astype(np.uint16)))
        if addr_seen[row] & mask:
            return False
    return True


def batch_active_mask(design, patches: list[Patch]) -> np.ndarray:
    """Node mask closing the output cone over golden + patch edges.

    Sound superset of what any machine in the batch can need: the
    backward closure from the outputs where each LUT/FF contributes its
    golden operands *plus* every operand any patch retargets it to.
    """
    extra: dict[int, list[int]] = {}
    seeds: list[int] = [int(x) for x in design.output_nodes]
    for p in patches:
        for row, pin, node in p.lut_inputs:
            extra.setdefault(int(design.lut_nodes[row]), []).append(int(node))
        for row, fieldname, value in p.ff_fields:
            if fieldname in (FFField.D, FFField.CE, FFField.SR):
                extra.setdefault(int(design.ff_nodes[row]), []).append(int(value))
        for _, node in p.outputs:
            seeds.append(int(node))

    lut_row_of = {int(n): r for r, n in enumerate(design.lut_nodes)}
    ff_row_of = {int(n): r for r, n in enumerate(design.ff_nodes)}
    mask = np.zeros(design.n_nodes, dtype=bool)
    stack = seeds
    while stack:
        n = stack.pop()
        if mask[n]:
            continue
        mask[n] = True
        r = lut_row_of.get(n)
        if r is not None:
            stack.extend(int(s) for s in design.lut_inputs[r])
        else:
            r = ff_row_of.get(n)
            if r is not None:
                stack.extend(
                    (int(design.ff_d[r]), int(design.ff_ce[r]), int(design.ff_sr[r]))
                )
        for s in extra.get(n, ()):  # patch edges
            if not mask[s]:
                stack.append(s)
    return mask


def _batch_active_mask(design, patches: list[Patch]) -> np.ndarray:
    """Deprecated alias of :func:`batch_active_mask`."""
    warnings.warn(
        "_batch_active_mask is deprecated; use batch_active_mask",
        DeprecationWarning,
        stacklevel=2,
    )
    return batch_active_mask(design, patches)


#: device name -> {(frame, offset) -> ResourceKind}; bit classification
#: is a pure function of the device geometry, which the name identifies.
_BIT_KIND_CACHE: dict[str, dict[tuple[int, int], ResourceKind]] = {}


def _by_kind(hw: HardwareDesign, sensitive_bits: np.ndarray) -> dict[ResourceKind, int]:
    """Per-resource-kind breakdown of sensitive bits.

    Runs at every checkpoint, so the frame lookup is vectorised (one
    ``searchsorted`` over the monotone frame-offset table instead of a
    binary search per bit) and the per-(frame, offset) classification is
    memoized per device — re-checkpointing a large sweep only pays for
    bits it has not classified before.
    """
    bits = np.asarray(sensitive_bits, dtype=np.int64)
    out: dict[ResourceKind, int] = {}
    if bits.size == 0:
        return out
    offsets = np.asarray(hw.bitstream.geometry.frame_offsets)
    frames = np.searchsorted(offsets, bits, side="right") - 1
    offs = bits - offsets[frames]
    cache = _BIT_KIND_CACHE.setdefault(hw.device.name, {})
    classify = hw.device.classify_bit
    for frame, off in zip(frames.tolist(), offs.tolist()):
        key = (frame, off)
        kind = cache.get(key)
        if kind is None:
            kind = classify(frame, off).kind
            cache[key] = kind
        out[kind] = out.get(kind, 0) + 1
    return out


def save_result(result: CampaignResult, path: str) -> None:
    """Persist a (possibly partial) campaign result to ``path`` (.npz).

    The tested bits are stored as a packed mask over the verdict array
    (:func:`~repro.engine.sweep.encode_done`).  The write is atomic
    (tmp file + rename) so a campaign killed while checkpointing never
    leaves a truncated snapshot behind.
    """
    payload = dict(
        design_name=np.str_(result.design_name),
        device_name=np.str_(result.device_name),
        config_json=np.str_(json.dumps(dataclasses.asdict(result.config))),
        n_candidates=np.int64(result.n_candidates),
        verdicts=result.verdicts,
        done_bits=encode_done(result.candidate_bits, result.verdicts.size),
        by_kind_names=np.array([k.name for k in result.by_kind], dtype=np.str_),
        by_kind_counts=np.array(list(result.by_kind.values()), dtype=np.int64),
        host_seconds=np.float64(result.host_seconds),
        n_simulated=np.int64(result.n_simulated),
    )
    if result.telemetry is not None:
        payload["telemetry_json"] = np.str_(json.dumps(result.telemetry.to_dict()))
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        np.savez_compressed(f, **payload)
    os.replace(tmp, path)


def load_result(path: str) -> CampaignResult:
    """Load a campaign result / checkpoint written by :func:`save_result`
    (also the older archives that list the bits under ``candidate_bits``)."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as err:
        raise CampaignError(f"cannot load campaign checkpoint {path!r}: {err}") from None
    config = CampaignConfig(**json.loads(str(data["config_json"])))
    by_kind = {
        ResourceKind[str(name)]: int(count)
        for name, count in zip(data["by_kind_names"], data["by_kind_counts"])
    }
    telemetry = None
    if "telemetry_json" in data:
        fields = {f.name for f in dataclasses.fields(CampaignTelemetry)}
        raw = json.loads(str(data["telemetry_json"]))
        telemetry = CampaignTelemetry(**{k: v for k, v in raw.items() if k in fields})
    verdicts = data["verdicts"]
    return CampaignResult(
        design_name=str(data["design_name"]),
        device_name=str(data["device_name"]),
        config=config,
        n_candidates=int(data["n_candidates"]),
        verdicts=verdicts,
        candidate_bits=decode_done(data, verdicts.size, "candidate_bits", path),
        by_kind=by_kind,
        host_seconds=float(data["host_seconds"]),
        n_simulated=int(data["n_simulated"]),
        telemetry=telemetry,
    )


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

    ``retire`` enables mid-run fault dropping (verdict-identical, see
    :meth:`BatchSimulator.run_verdicts`); it is an execution knob, so it
    is deliberately excluded from :meth:`key` — checkpoints written with
    either setting resume into each other.
    """

    spec: Any
    device_name: str
    config: CampaignConfig
    retire: bool = True

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
        return hw, build_context(
            hw, self.config, fast_forward=None if self.fast_forward_cycle() is not None else False
        )

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
        return simulate_batch(self.config, cctx, pending, retire=self.retire)

    def collapse_salt_datum(self, candidate: int, ctx, patch: Patch) -> int:
        _, cctx = ctx
        return settle_key(cctx.design, patch)

    def classify(self, observation: int) -> int:
        return int(observation)


def _to_sweep(model: SEUFaultModel, result: CampaignResult) -> SweepResult:
    """View a prior :class:`CampaignResult` as an engine partial."""
    return SweepResult(
        model_name=model.name,
        model_key=model.key(),
        n_space=int(result.verdicts.size),
        verdicts=result.verdicts,
        candidate_ids=np.asarray(result.candidate_bits, dtype=np.int64),
        n_simulated=result.n_simulated,
        host_seconds=result.host_seconds,
        telemetry=result.telemetry,
    )


def _from_sweep(
    hw: HardwareDesign, config: CampaignConfig, sweep: SweepResult
) -> CampaignResult:
    """Materialise an engine sweep as the historical result type."""
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
    merge_with: CampaignResult | None = None,
    collapse: bool = True,
    retire: bool = True,
    jobs: int | None = 1,
    executor: Executor | None = None,
    shards_per_job: int = 4,
) -> CampaignResult:
    """Exhaustive (or strided) single-bit SEU campaign over one design.

    With ``checkpoint_path`` the campaign snapshots a partial
    :class:`CampaignResult` to disk as it goes (every
    ``checkpoint_every`` simulated survivors, per shard under a pool,
    and once more at the end), so a multi-hour sweep killed mid-run
    resumes with :func:`resume_campaign` instead of starting over.
    ``merge_with`` folds an earlier partial result into every snapshot
    (used by resume so re-interrupted runs stay whole).

    ``jobs`` shards the sweep over worker processes (``None`` uses every
    CPU) with verdicts byte-identical to ``jobs=1``, because shards cut
    only at ``config.batch_size`` boundaries; an external ``executor``
    (e.g. a shared pool) is used as-is and not shut down, and
    ``shards_per_job`` sets how many shards each worker gets.

    ``collapse`` (fault collapsing: one simulation per identical-patch
    class) and ``retire`` (mid-run fault dropping) are verdict-identical
    accelerations, on by default; the ``--no-collapse`` / ``--no-retire``
    CLI flags map here.
    """
    config = config or CampaignConfig()
    prime_design_cache(hw)
    model = SEUFaultModel(hw.spec, hw.device.name, config, retire=retire)
    if candidate_bits is None:
        candidate_bits = _candidate_bits(hw, config)
    candidate_bits = np.asarray(candidate_bits, dtype=np.int64)

    checkpoint_cb = None
    if checkpoint_path is not None:

        def checkpoint_cb(sweep: SweepResult) -> None:
            # Resolve save_result at call time so tests (and tools) that
            # monkeypatch it see every checkpoint write.
            save_result(_from_sweep(hw, config, sweep), checkpoint_path)

    # No pre-built context: the driver consults the whole-sweep result
    # cache *before* building one (model.build_context reuses the primed
    # implemented design), so a warm repeat sweep never pays for the
    # golden run at all.
    sweep = run_sharded(
        model,
        jobs=jobs,
        batch_size=config.batch_size,
        candidates=candidate_bits,
        checkpoint_save=checkpoint_cb,
        checkpoint_every=checkpoint_every,
        merge_with=_to_sweep(model, merge_with) if merge_with is not None else None,
        executor=executor,
        shards_per_job=shards_per_job,
        collapse=collapse,
    )
    return _from_sweep(hw, config, sweep)


def resume_campaign(
    hw: HardwareDesign,
    checkpoint_path: str,
    candidate_bits: np.ndarray | None = None,
    checkpoint_every: int = 50_000,
    collapse: bool = True,
    retire: bool = True,
    jobs: int | None = 1,
    executor: Executor | None = None,
    shards_per_job: int = 4,
) -> CampaignResult:
    """Resume an interrupted campaign from its checkpoint.

    Loads the snapshot, skips every bit that already has a verdict, runs
    the remainder (checkpointing to the same file as it goes), and
    merges.  No verdict depends on which bits share a batch, so the
    merged result is identical to a never-killed sweep, whatever
    ``jobs`` either run used.
    """
    part = load_result(checkpoint_path)
    if part.design_name != hw.spec.name or part.device_name != hw.device.name:
        raise CampaignError(
            f"checkpoint {checkpoint_path!r} is for "
            f"{part.design_name}/{part.device_name}, not "
            f"{hw.spec.name}/{hw.device.name}"
        )
    if candidate_bits is None:
        candidate_bits = _candidate_bits(hw, part.config)
    candidate_bits = np.asarray(candidate_bits, dtype=np.int64)
    remaining = np.setdiff1d(candidate_bits, part.candidate_bits)
    if remaining.size == 0:
        return part
    return run_campaign(
        hw,
        part.config,
        candidate_bits=remaining,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        merge_with=part,
        collapse=collapse,
        retire=retire,
        jobs=jobs,
        executor=executor,
        shards_per_job=shards_per_job,
    )


def merge_results(parts: list[CampaignResult]) -> CampaignResult:
    """Combine campaigns over disjoint candidate sets into one result.

    Supports chunked or parallel execution: split the bit space, run
    each chunk (possibly in separate processes), merge.  Configurations
    must match; candidate sets must not overlap.
    """
    if not parts:
        raise CampaignError("nothing to merge")
    first = parts[0]
    verdicts = first.verdicts.copy()
    candidates = [first.candidate_bits]
    seen = set(int(b) for b in first.candidate_bits)
    n_sim = first.n_simulated
    host = first.host_seconds
    by_kind: dict[ResourceKind, int] = dict(first.by_kind)
    for part in parts[1:]:
        if part.design_name != first.design_name or part.device_name != first.device_name:
            raise CampaignError("cannot merge campaigns of different designs")
        if part.config != first.config:
            raise CampaignError("cannot merge campaigns with different configs")
        overlap = seen.intersection(int(b) for b in part.candidate_bits)
        if overlap:
            raise CampaignError(
                f"candidate sets overlap ({len(overlap)} bits, e.g. {min(overlap)})"
            )
        seen.update(int(b) for b in part.candidate_bits)
        mask = part.verdicts != BitVerdict.NOT_TESTED
        verdicts[mask] = part.verdicts[mask]
        candidates.append(part.candidate_bits)
        n_sim += part.n_simulated
        host += part.host_seconds
        for kind, n in part.by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0) + n
    merged_bits = np.sort(np.concatenate(candidates))
    return CampaignResult(
        design_name=first.design_name,
        device_name=first.device_name,
        config=first.config,
        n_candidates=int(merged_bits.size),
        verdicts=verdicts,
        candidate_bits=merged_bits,
        by_kind=by_kind,
        host_seconds=host,
        n_simulated=n_sim,
    )


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
    retire: bool = True

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
        return hw, build_context(
            hw, self.config, fast_forward=None if self.fast_forward_cycle() is not None else False
        )

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
        sim = BatchSimulator(
            cctx.design, [p for _, p in pending], initial_values=cctx.snapshot
        )
        failed = detect_failures(
            sim,
            cctx.post_stim,
            cctx.post_golden.outputs,
            self.config.detect_cycles,
            retire=self.retire,
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
    collapse: bool = True,
    retire: bool = True,
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
        retire=retire,
    )
    if resume:
        if checkpoint_path is None:
            raise CampaignError("resume requires a checkpoint path")
        return resume_sweep(
            model,
            checkpoint_path,
            jobs=jobs,
            batch_size=config.batch_size,
            collapse=collapse,
        )
    return run_sweep(
        model,
        jobs=jobs,
        batch_size=config.batch_size,
        checkpoint_path=checkpoint_path,
        collapse=collapse,
    )


def run_halflatch_campaign(
    hw: HardwareDesign,
    config: CampaignConfig | None = None,
    nodes: np.ndarray | None = None,
    jobs: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    collapse: bool = True,
    retire: bool = True,
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
        collapse=collapse,
        retire=retire,
    )
    if nodes is None:
        nodes = hw.decoded.design.half_latch_nodes
    return {
        int(n): bool(sweep.verdicts[int(n)] == CODE_FAIL)
        for n in np.asarray(nodes, dtype=np.int64)
    }
