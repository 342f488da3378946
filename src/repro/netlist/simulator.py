"""Vectorised lock-step simulator for batches of faulty machines.

This is the performance core of the reproduction.  The paper gets its
"many orders of magnitude" speed-up by running corrupted designs on real
silicon; we get ours by simulating B corrupted variants of one design
simultaneously with numpy:

* node values live in a ``(B, n_nodes)`` uint8 matrix, where
  ``n_nodes`` is the design's: fault models simulate each batch on the
  sub-design its outputs can observe (:func:`repro.netlist.cone.restrict`),
  so a batch costs what the design costs, not what the device costs;
* each LUT level evaluates for all machines at once in five array
  calls: an operand gather, one uint32 multiply that composes every
  LUT's 4-bit address (see :data:`ADDR_IDIOMS`), a table-index
  add, a table gather and a scatter.  The index arrays are built once —
  per-machine wiring only changes at patch/repair time, so the
  per-cycle work runs into preallocated buffers;
* flip-flops update from one gather of ``[D | CE | SR | current]``
  and a masked-merge honouring per-machine CE, SR and clock health;
* the per-cycle output-vs-golden comparison packs both sides into
  uint64 words, so a machine's health check is a handful of word
  compares instead of ``n_outputs`` byte compares.

Per-machine hardware differences come in as :class:`Patch` objects; the
simulator records undo information so a machine can be *repaired*
mid-run (configuration scrubbing restores the bitstream but not the
state — exactly the persistence experiment of paper section III-A).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetlistError
from repro.netlist import native
from repro.netlist.compiled import (
    CompiledDesign,
    FFField,
    NodeKind,
    Patch,
)

__all__ = [
    "GoldenTrace",
    "MachineVerdict",
    "BatchSimulator",
    "KernelCounters",
    "KERNEL_COUNTERS",
    "SETTLE_CAP",
    "ADDR_IDIOMS",
    "max_schedule_violations",
    "packed_outputs",
    "require_binary",
    "settle_key",
]

#: largest auto-detected settle-pass surplus; deeper acyclic rewirings
#: run under-settled (and warn, so campaigns cannot miss it silently)
SETTLE_CAP = 3

_SETTLE_CAP_MSG = (
    "patch set exceeds the settle-pass cap: schedule-violating rewires deeper "
    "than SETTLE_CAP run with capped settle passes and may not reach their "
    "exact fixpoint (see BatchSimulator.schedule_violations_uncapped)"
)


@dataclass
class KernelCounters:
    """Process-global fault-dropping statistics of the simulator kernel.

    Campaign drivers snapshot/diff these around observation calls (and
    collect the diffs from worker processes) to report retirement rates
    in :class:`~repro.engine.telemetry.CampaignTelemetry`.

    With retirement on, every verdict loop — the compiled machine-major
    one and the numpy lock-step one alike — records each machine's stop
    cycle and hands it to :meth:`count_stops`: ``machines_retired``
    counts the machines that stopped before the batch's last cycle (the
    latest stop cycle of any of its machines) and
    ``machine_cycles_saved`` sums the batch's last cycle minus each
    machine's stop cycle.  With retirement off both stay 0.
    ``ff_cycles_skipped`` counts golden-prefix cycles fast-forward did
    not replay.
    """

    machines_retired: int = 0
    machine_cycles_saved: int = 0
    ff_cycles_skipped: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.machines_retired, self.machine_cycles_saved, self.ff_cycles_skipped)

    def delta(self, since: tuple[int, int, int]) -> tuple[int, int, int]:
        now = self.snapshot()
        return (now[0] - since[0], now[1] - since[1], now[2] - since[2])

    def count_stops(self, stop: np.ndarray) -> None:
        """Count one batch's early stops from its per-machine stop cycles."""
        t_exit = int(stop.max(initial=-1))
        early = stop < t_exit
        self.machines_retired += int(np.count_nonzero(early))
        self.machine_cycles_saved += int(np.sum(t_exit - stop[early]))

    def to_dict(self) -> dict[str, int]:
        """JSON-ready sample (the trace ``counters`` event payload)."""
        return {
            "machines_retired": int(self.machines_retired),
            "machine_cycles_saved": int(self.machine_cycles_saved),
            "ff_cycles_skipped": int(self.ff_cycles_skipped),
        }


KERNEL_COUNTERS = KernelCounters()


#: ``(multiplier, byte index)`` of the LUT address idiom per byte order.
#: Four adjacent 0/1 operand bytes read as one native uint32 and
#: multiplied by the multiplier hold ``op0 | op1<<1 | op2<<2 | op3<<3``
#: in that byte of the product.  Little-endian, operand ``i`` sits at
#: bit ``8i`` and the term ``2**(24 - 7i)`` of ``0x01020408`` moves it to
#: bit ``24 + i``.  Every other product term is one of the distinct bits
#: 3, 10, 11, 17, 18, 19 — so no carry reaches bit 24 — or lands past
#: bit 32 and wraps away.  Big-endian mirrors the operand positions, the
#: multiplier and the byte index.
ADDR_IDIOMS = {"little": (0x01020408, 3), "big": (0x08040201, 0)}
ADDR_MULTIPLIER = np.uint32(ADDR_IDIOMS[sys.byteorder][0])
ADDR_BYTE = ADDR_IDIOMS[sys.byteorder][1]


def require_binary(values: np.ndarray, what: str) -> None:
    """Raise :class:`NetlistError` unless every entry of ``values`` is 0/1.

    Node values are 0/1 by invariant.  The kernel would read a larger
    operand as an entry of another LUT's truth table, so it rejects
    non-binary stimulus and ``initial_values`` by name instead.
    """
    if values.size and (values.max() > 1 or values.min() < 0):
        raise NetlistError(f"simulator requires 0/1 {what}")


def _check_range(what: str, value, stop: int) -> None:
    if not 0 <= value < stop:
        raise NetlistError(f"patch {what} {value} out of range [0, {stop})")


def _check_patch(d: CompiledDesign, patch: Patch) -> None:
    """Raise :class:`NetlistError` naming the first out-of-range field.

    Every index a patch carries is later used unchecked, by numpy and by
    the compiled step alike: a node index past ``n_nodes`` would read
    another machine's node, a negative one would wrap around.
    """
    for row, table in patch.lut_tables:
        _check_range("lut_tables row", row, d.n_luts)
        table = np.asarray(table)
        if table.shape != (16,):
            raise NetlistError(f"patch lut_tables row {row}: table must have 16 entries")
        require_binary(table, "lut_tables entries")
    for row, pin, node in patch.lut_inputs:
        _check_range("lut_inputs row", row, d.n_luts)
        _check_range("lut_inputs pin", pin, 4)
        _check_range("lut_inputs node", node, d.n_nodes)
    for row, fieldname, value in patch.ff_fields:
        _check_range("ff_fields row", row, d.n_ffs)
        if fieldname in (FFField.INIT, FFField.CLOCKED):
            _check_range("ff_fields value", value, 2)
        else:
            _check_range("ff_fields node", value, d.n_nodes)
    for node, value in patch.consts:
        _check_range("consts node", node, d.n_nodes)
        _check_range("consts value", value, 2)
        if d.node_kind[node] not in (NodeKind.CONST, NodeKind.HALF_LATCH):
            raise NetlistError(f"const patch targets non-constant node {node}")
    for pos, node in patch.outputs:
        _check_range("outputs position", pos, d.n_outputs)
        _check_range("outputs node", node, d.n_nodes)


def max_schedule_violations(design: CompiledDesign, patches: list[Patch] | None) -> int:
    """Largest per-machine count of LUT edges defying golden levels."""
    return BatchSimulator._max_schedule_violations(design, patches)


def settle_key(design: CompiledDesign, patch: Patch) -> int:
    """Settle passes a batch holding only ``patch`` auto-detects.

    A batch whose machines all share this key auto-detects exactly it,
    so fault models hand it to the engine as their settle key and no
    verdict depends on its batchmates.
    """
    return 1 + min(SETTLE_CAP, max_schedule_violations(design, [patch]))


@dataclass
class GoldenTrace:
    """Reference behaviour of the fault-free design.

    ``addr_seen[lut]`` is a 16-bit occupancy mask of the truth-table
    entries the run actually addressed — the structural pre-filter uses
    it to skip LUT-content faults on never-exercised entries.

    ``addr_rows`` (recorded on request) is the per-cycle version: row
    ``t`` holds each LUT's one-hot address mask at the *evaluation
    fixpoint* of cycle ``t`` (before the flip-flops clock), which is the
    exact entry set a lock-step machine can read that cycle.  Fault
    dropping builds its "never addressed again" suffix masks from it.

    ``snapshot_cycles``/``snapshots`` (recorded with a
    ``snapshot_stride``) are the golden-prefix checkpoints: row ``j`` of
    ``snapshots`` is the full node-value vector *after*
    ``snapshot_cycles[j]`` cycles have run, i.e. the exact state a fresh
    simulator restores through ``initial_values`` to fast-forward past
    the fault-free prefix.  Node values fully determine future evolution
    given the stimulus, so a restored run is byte-identical to one from
    cycle 0.
    """

    outputs: np.ndarray  # (cycles, n_outputs) uint8
    addr_seen: np.ndarray  # (n_luts,) uint16
    final_state: np.ndarray  # (n_ffs,) uint8
    addr_rows: np.ndarray | None = field(default=None)  # (cycles, n_luts) uint16
    snapshot_cycles: np.ndarray | None = field(default=None)  # (k,) int64
    snapshots: np.ndarray | None = field(default=None)  # (k, n_nodes) uint8

    @property
    def n_cycles(self) -> int:
        return int(self.outputs.shape[0])

    def nearest_snapshot(self, cycle: int) -> tuple[int, np.ndarray | None]:
        """Latest recorded snapshot at or before ``cycle``.

        Returns ``(snapshot_cycle, state)`` — the number of cycles the
        snapshot already covers and the node values to restore — or
        ``(0, None)`` when no snapshot helps (replay from power-on).
        """
        if self.snapshot_cycles is None or self.snapshot_cycles.size == 0:
            return 0, None
        j = int(np.searchsorted(self.snapshot_cycles, cycle, side="right")) - 1
        if j < 0:
            return 0, None
        return int(self.snapshot_cycles[j]), self.snapshots[j]


@dataclass
class MachineVerdict:
    """Outcome of one faulty machine in a detect/repair/persist run."""

    failed: bool
    first_error_cycle: int  # -1 when no error observed
    persistent: bool  # meaningful only when failed
    recovered_cycle: int  # cycle outputs re-matched after repair; -1 if never


class BatchSimulator:
    """Simulates ``B`` patched variants of one compiled design in lock-step."""

    #: the compiled step bound to this batch's arrays; ``None`` runs the
    #: numpy body (no C compiler)
    _native: native.StepPlan | None = None

    def __init__(
        self,
        design: CompiledDesign,
        patches: list[Patch] | None = None,
        settle_passes: int | None = None,
        initial_values: np.ndarray | None = None,
        companion: bool = False,
    ):
        """``initial_values`` (a ``(n_nodes,)`` snapshot from a golden run)
        makes :meth:`reset` restore that mid-run state instead of the
        power-on state — faults are injected into *running* designs, as
        on the SLAAC-1V (paper Figure 8).

        Every node, LUT and FF of ``design`` is simulated; fault models
        pass the sub-design of :func:`repro.netlist.cone.restrict` to
        simulate only what the batch's outputs can observe.

        ``settle_passes=None`` (default) auto-detects: patches that
        reroute a LUT operand onto a node computed at the same or a
        later level violate the golden evaluation schedule; each extra
        pass absorbs one stale step, so the batch runs with enough
        passes that acyclic rewirings settle to their exact fixpoint
        (golden-equivalent machines are unaffected — levelized
        evaluation is idempotent).  Sets beyond :data:`SETTLE_CAP`
        violations warn and record the uncapped count in
        :attr:`schedule_violations_uncapped`.

        ``companion=True`` appends one extra *golden* machine (empty
        patch) at the last batch slot.  It adds no patch edges and no
        schedule violations, so it never changes any other machine's
        verdict; :meth:`run_verdicts` uses it as the in-batch golden
        state reference that fault dropping compares against."""
        self.design = design
        self.companion = bool(companion)
        patches = list(patches) if patches else [Patch()]
        if companion:
            patches.append(Patch())
        self._initial_values = (
            None if initial_values is None else np.asarray(initial_values, dtype=np.uint8)
        )
        if self._initial_values is not None:
            if self._initial_values.shape != (design.n_nodes,):
                raise NetlistError("initial_values must be a (n_nodes,) snapshot")
            require_binary(np.asarray(initial_values), "initial_values")
        self.patches = patches
        self.B = len(self.patches)
        if self.B < 1:
            raise NetlistError("batch must contain at least one machine")
        self._addr_capture: list[np.ndarray] | None = None

        d = design
        B = self.B
        #: set once the gather caches exist; a mid-run patch refreshes
        #: the touched machine's caches only when this is True
        self._caches_built = False
        # Per-machine hardware arrays (patched copies of the golden arrays).
        self.lut_inputs = np.broadcast_to(d.lut_inputs, (B, d.n_luts, 4)).copy()
        self.lut_tables = np.broadcast_to(d.lut_tables, (B, d.n_luts, 16)).copy()
        self.ff_d = np.broadcast_to(d.ff_d, (B, d.n_ffs)).copy()
        self.ff_ce = np.broadcast_to(d.ff_ce, (B, d.n_ffs)).copy()
        self.ff_sr = np.broadcast_to(d.ff_sr, (B, d.n_ffs)).copy()
        self.ff_init = np.broadcast_to(d.ff_init, (B, d.n_ffs)).copy()
        self.ff_clocked = np.broadcast_to(d.ff_clocked, (B, d.n_ffs)).copy()
        self.const_values = np.broadcast_to(d.const_values, (B, d.n_nodes)).copy()
        self.output_nodes = np.broadcast_to(d.output_nodes, (B, d.n_outputs)).copy()

        for m, patch in enumerate(self.patches):
            self._apply_patch(m, patch)
        # Auto-detect runs on range-checked patches (see _apply_patch).
        #: uncapped schedule-violation count when auto-detect ran, else None
        self.schedule_violations_uncapped: int | None = None
        if settle_passes is None:
            raw = self._max_schedule_violations(design, patches)
            self.schedule_violations_uncapped = raw
            if raw > SETTLE_CAP:
                warnings.warn(_SETTLE_CAP_MSG, RuntimeWarning, stacklevel=2)
            settle_passes = 1 + min(SETTLE_CAP, raw)
        if settle_passes < 1:
            raise NetlistError("settle_passes must be >= 1")
        self.settle_passes = settle_passes

        self._const_mask = np.isin(
            d.node_kind, (int(NodeKind.CONST), int(NodeKind.HALF_LATCH))
        )
        self.values = np.zeros((B, d.n_nodes), dtype=np.uint8)
        self._build_gather_caches()
        self.reset()

    # -- gather-index caches --------------------------------------------------
    #
    # Per-machine wiring (LUT operand sources, FF control sources, output
    # bindings) changes only when a patch is applied or a machine is
    # repaired.  The flat gather indices derived from it are therefore
    # precomputed here — per cycle the simulator only gathers, multiplies
    # and scatters into preallocated buffers, never rebuilding index
    # arrays.

    def _build_gather_caches(self) -> None:
        d = self.design
        B = self.B
        self._values_flat = self.values.reshape(-1)
        self._lut_tables_flat = self.lut_tables.reshape(-1)
        self._moff = (np.arange(B, dtype=np.intp) * d.n_nodes)[:, None]  # (B, 1)

        # One plan tuple per level of L LUTs (see _eval_combinational):
        # (B, 4L) operand indices and uint8 operands, the operands' (B, L)
        # uint32 view, (B, L) uint32 products and their address-byte
        # view, (B, L) table row bases, table indices, outputs and output
        # nodes.  The operand indices, table row bases, outputs and
        # output nodes of all levels are level-major slices of four flat
        # buffers, which the native step walks directly (``_lvl_len``
        # holds each level's LUT count).  One machine's operand refresh
        # is a single scatter to ``_lvl_pos0 + m * _lvl_pos_step`` of its
        # ``_lvl_src`` operands.
        counts = [int(rows.size) for rows in d.levels]
        n_slots = B * sum(counts)
        self._lvl_gather_flat = np.empty(4 * n_slots, dtype=np.intp)
        self._lvl_tab_flat = np.empty(n_slots, dtype=np.intp)
        self._lvl_scatter_flat = np.empty(n_slots, dtype=np.intp)
        self._lvl_out_flat = np.empty(n_slots, dtype=np.uint8)
        self._lvl_len = np.array(counts, dtype=np.intp)
        pos0, step, src = [], [], []
        self._lvl_plan: list[tuple[np.ndarray, ...]] = []
        tab_moff = (np.arange(B, dtype=np.intp) * (d.n_luts * 16))[:, None]
        lo = 0
        for rows, n in zip(d.levels, counts):
            hi = lo + B * n
            gather = self._lvl_gather_flat[4 * lo : 4 * hi].reshape(B, 4 * n)
            pos0.append(np.arange(4 * lo, 4 * (lo + n), dtype=np.intp))
            step.append(np.full(4 * n, 4 * n, dtype=np.intp))
            src.append((rows.astype(np.intp)[:, None] * 4 + np.arange(4)).reshape(-1))
            tab_base = self._lvl_tab_flat[lo:hi].reshape(B, n)
            np.add(tab_moff, (rows.astype(np.intp) * 16)[None, :], out=tab_base)
            scatter = self._lvl_scatter_flat[lo:hi].reshape(B, n)
            np.add(self._moff, d.lut_nodes[rows].astype(np.intp)[None, :], out=scatter)
            buf = np.empty((B, 4 * n), dtype=np.uint8)
            prod = np.empty((B, n), dtype=np.uint32)
            self._lvl_plan.append((
                gather,
                buf,
                buf.view(np.uint32),
                prod,
                prod.view(np.uint8)[:, ADDR_BYTE::4],
                tab_base,
                np.empty((B, n), dtype=np.intp),
                self._lvl_out_flat[lo:hi].reshape(B, n),
                scatter,
            ))
            lo = hi
        empty = np.zeros(0, dtype=np.intp)
        self._lvl_pos0 = np.concatenate([empty, *pos0])
        self._lvl_pos_step = np.concatenate([empty, *step])
        self._lvl_src = np.concatenate([empty, *src])

        # One (B, 4R) gather fetches [D | CE | SR | current] per FF; the
        # current-value quarter reads the FF nodes themselves, so it is
        # fixed and only the first three quarters follow the wiring.
        R = d.n_ffs
        self._ff_scatter = self._moff + d.ff_nodes.astype(np.intp)[None, :]
        self._ff_gather = np.empty((B, 4 * R), dtype=np.intp)
        self._ff_gather[:, 3 * R :] = self._ff_scatter
        self._ff_buf = np.empty((B, 4 * R), dtype=np.uint8)
        self._ff_fields = np.hsplit(self._ff_buf, 4)  # D, CE, SR, current views
        self._ff_new = np.empty((B, R), dtype=np.uint8)
        self._ff_unclocked = np.empty((B, R), dtype=bool)

        self._out_idx = np.empty((B, d.n_outputs), dtype=np.intp)
        # Per-cycle reusable buffers: step() returns _out_buf (callers
        # must copy to keep a cycle's outputs), and the stimulus scatter
        # index makes the input write one flat broadcast assignment.
        self._out_buf = np.empty((B, d.n_outputs), dtype=np.uint8)
        self._in_scatter = self._moff + d.input_nodes.astype(np.intp)[None, :]
        self._stim_buf = np.empty(d.n_inputs, dtype=np.uint8)
        self._refresh_machine_caches()
        self._caches_built = True
        # The compiled step reads and writes the arrays above in place.
        k = native.kernel()
        self._verdicts_fn = None if k is None else k.verdicts
        self._native = None if k is None else native.StepPlan(k.step, **self._step_fields())

    def _step_fields(self) -> dict:
        """The compiled step's arguments: the gather caches, bound in place."""
        d = self.design
        return dict(
            v=self._values_flat,
            tables=self._lut_tables_flat,
            stim=self._stim_buf,
            in_scatter=self._in_scatter,
            B=self.B,
            v_stride=d.n_nodes,
            tab_stride=d.n_luts * 16,
            n_in=d.n_inputs,
            settle=self.settle_passes,
            n_levels=self._lvl_len.size,
            level_len=self._lvl_len,
            gather=self._lvl_gather_flat,
            tab_base=self._lvl_tab_flat,
            scatter=self._lvl_scatter_flat,
            lut_out=self._lvl_out_flat,
            n_out=d.n_outputs,
            out_idx=self._out_idx,
            out=self._out_buf,
            R=d.n_ffs,
            ff_gather=self._ff_gather,
            ff_unclocked=self._ff_unclocked,
            ff_scatter=self._ff_scatter,
            ff_new=self._ff_new,
        )

    def _refresh_machine_caches(self, m: int | None = None) -> None:
        """Rebuild gather indices after wiring changed (patch / repair).

        ``m=None`` rebuilds every machine (init); an int rebuilds only
        that machine's rows — a repair touches one machine, not the
        batch.
        """
        d = self.design
        if m is None:
            sel, off = slice(None), self._moff
            for (gather, *_), rows in zip(self._lvl_plan, d.levels):
                np.add(self.lut_inputs[:, rows, :].reshape(gather.shape), off, out=gather)
        else:
            sel, off = m, np.intp(m * d.n_nodes)
            pos = self._lvl_pos0 + m * self._lvl_pos_step
            self._lvl_gather_flat[pos] = self.lut_inputs[m].reshape(-1).take(self._lvl_src) + off
        R = d.n_ffs
        for j, src in enumerate((self.ff_d, self.ff_ce, self.ff_sr)):
            np.add(src[sel], off, out=self._ff_gather[sel, j * R : (j + 1) * R])
        np.not_equal(self.ff_clocked[sel], 1, out=self._ff_unclocked[sel])
        np.add(self.output_nodes[sel], off, out=self._out_idx[sel])

    @staticmethod
    def _max_schedule_violations(design: CompiledDesign, patches: list[Patch] | None) -> int:
        """Largest per-machine count of LUT edges defying golden levels."""
        if not patches:
            return 0
        level_of = design.level_of_row
        row_of = design.row_of_lut_node
        worst = 0
        for patch in patches:
            v = 0
            for row, _pin, node in patch.lut_inputs:
                src_row = row_of.get(int(node))
                if src_row is not None and level_of[src_row] >= level_of[row]:
                    v += 1
            worst = max(worst, v)
        return worst

    # -- patching ------------------------------------------------------------

    def _apply_patch(self, m: int, patch: Patch) -> None:
        if patch.is_empty():
            return
        d = self.design
        self._at_reset = False
        _check_patch(d, patch)
        for row, table in patch.lut_tables:
            self.lut_tables[m, row] = table
        for row, pin, node in patch.lut_inputs:
            self.lut_inputs[m, row, pin] = node
        for row, fieldname, value in patch.ff_fields:
            if fieldname is FFField.D:
                self.ff_d[m, row] = value
            elif fieldname is FFField.CE:
                self.ff_ce[m, row] = value
            elif fieldname is FFField.SR:
                self.ff_sr[m, row] = value
            elif fieldname is FFField.INIT:
                self.ff_init[m, row] = value
            elif fieldname is FFField.CLOCKED:
                self.ff_clocked[m, row] = value
            else:  # pragma: no cover - exhaustive enum
                raise NetlistError(f"unknown FF field {fieldname}")
        for node, value in patch.consts:
            self.const_values[m, node] = value
        for pos, node in patch.outputs:
            self.output_nodes[m, pos] = node
        # Mid-run injection (after __init__) must rebuild the machine's
        # gather indices; during __init__ the caches do not exist yet and
        # are built once after all patches are applied.
        if self._caches_built:
            self._refresh_machine_caches(m)

    def repair_machine(self, m: int) -> None:
        """Restore machine ``m``'s *hardware* to golden; keep its state.

        Models a configuration scrub: the corrupted frame is rewritten,
        but flip-flop contents — and half-latch keepers — are untouched.
        """
        self._at_reset = False
        const_only = self._restore_hardware(m)
        self.values[m, const_only] = self.design.const_values[const_only]
        self._refresh_machine_caches(m)

    def _restore_hardware(self, m) -> np.ndarray:
        """Golden hardware arrays for machine(s) ``m``; returns the CONST mask.

        Constants: CONST nodes are configuration (repaired); HALF_LATCH
        keepers are hidden state and deliberately NOT restored.
        """
        d = self.design
        self.lut_inputs[m] = d.lut_inputs
        self.lut_tables[m] = d.lut_tables
        self.ff_d[m] = d.ff_d
        self.ff_ce[m] = d.ff_ce
        self.ff_sr[m] = d.ff_sr
        self.ff_init[m] = d.ff_init
        self.ff_clocked[m] = d.ff_clocked
        self.output_nodes[m] = d.output_nodes
        const_only = d.node_kind == int(NodeKind.CONST)
        self.const_values[np.ix_(np.atleast_1d(m), const_only)] = d.const_values[const_only]
        return const_only

    # -- execution ---------------------------------------------------------

    def reset(self) -> None:
        """Restore the start state.

        Power-on semantics (constants asserted, FFs to INIT) by default;
        with ``initial_values`` the golden mid-run snapshot is restored
        and per-machine constant patches (e.g. half-latch upsets) are
        applied on top.
        """
        d = self.design
        self._at_reset = True
        if self._initial_values is not None:
            self.values[:] = self._initial_values[None, :]
            np.copyto(self.values, self.const_values, where=self._const_mask)
            return
        self.values[:] = 0
        np.copyto(self.values, self.const_values, where=self._const_mask)
        if d.n_ffs:
            self.values[
                np.arange(self.B)[:, None], d.ff_nodes[None, :]
            ] = self.ff_init

    def state_snapshot(self) -> np.ndarray:
        """Copy of machine 0's node values (for mid-run injection starts)."""
        return self.values[0].copy()

    def _evaluate(self, stimulus_row: np.ndarray) -> None:
        """Drive the inputs, settle every level and gather the outputs."""
        if self._native is not None:
            self._stim_buf[:] = stimulus_row
            self._native(native.EVAL)
            return
        if self.design.n_inputs:
            self._values_flat[self._in_scatter] = stimulus_row
        self._eval_combinational()
        np.take(self._values_flat, self._out_idx, out=self._out_buf)

    def _eval_combinational(self) -> None:
        vf = self._values_flat
        tf = self._lut_tables_flat
        plan = self._lvl_plan
        for _ in range(self.settle_passes):
            for gather, buf, buf32, prod32, addr8, tab_base, tab_idx, out, scatter in plan:
                # Operand fetch: one flat gather, four bytes per LUT.
                vf.take(gather, out=buf)
                # Address composition: one multiply per LUT's uint32 word.
                np.multiply(buf32, ADDR_MULTIPLIER, out=prod32)
                # Table lookup: flat gather into the per-level out buffer.
                np.add(tab_base, addr8, out=tab_idx)
                tf.take(tab_idx, out=out)
                vf[scatter] = out

    def _clock_ffs(self) -> None:
        if self._native is not None:
            self._native(native.CLOCK)
            return
        if self.design.n_ffs == 0:
            return
        vf = self._values_flat
        vf.take(self._ff_gather, out=self._ff_buf)
        d, ce, sr, cur = self._ff_fields
        # Priority: SR clears, else CE loads D, else hold; unclocked FFs
        # hold regardless.  With 0/1 values ``cur ^ ((cur ^ d) & ce)``
        # picks D where CE is set and ``new > sr`` zeroes it where SR is.
        new = self._ff_new
        np.bitwise_xor(cur, d, out=new)
        np.bitwise_and(new, ce, out=new)
        np.bitwise_xor(new, cur, out=new)
        np.greater(new, sr, out=new)
        np.copyto(new, cur, where=self._ff_unclocked)
        vf[self._ff_scatter] = new

    def step(self, stimulus_row: np.ndarray) -> np.ndarray:
        """Advance one clock cycle; returns outputs as (B, n_outputs).

        ``stimulus_row`` is the primary-input vector for this cycle,
        shared by every machine (golden and faulty parts see identical
        stimulus, as on the SLAAC-1V).  The returned array is a
        preallocated buffer reused by the next step — callers that keep
        a cycle's outputs must copy them.
        """
        n = self.design.n_inputs
        if stimulus_row.shape != (n,):
            raise NetlistError(f"stimulus row must have {n} entries, got {stimulus_row.shape}")
        require_binary(stimulus_row, "stimulus")
        self._at_reset = False
        if self._native is not None and self._addr_capture is None:
            # The whole cycle in one compiled call.
            self._stim_buf[:] = stimulus_row
            self._native(native.EVAL | native.CLOCK)
            return self._out_buf
        self._evaluate(stimulus_row)
        if self._addr_capture is not None:
            # Machine 0's one-hot LUT address masks at the evaluation
            # fixpoint — captured *before* the flip-flops clock, because
            # a LUT reading an FF node composes this cycle's address
            # from the pre-clock value.
            self._addr_capture.append(self._machine0_addr_row())
        self._clock_ffs()
        return self._out_buf

    def _machine0_addr_row(self) -> np.ndarray:
        """One-hot uint16 per LUT: machine 0's current address mask."""
        ops = self.values[0].take(self._m0_flat_idx)
        addr = (ops.view(np.uint32) * ADDR_MULTIPLIER).view(np.uint8)[ADDR_BYTE::4]
        return np.left_shift(np.uint16(1), addr, dtype=np.uint16)

    def run(
        self,
        stimulus: np.ndarray,
        record_addresses: bool = False,
        record_addr_rows: bool = False,
        snapshot_stride: int | None = None,
    ) -> np.ndarray:
        """Run all machines over a (cycles, n_inputs) stimulus.

        Returns outputs of shape ``(cycles, B, n_outputs)``.  With
        ``record_addresses`` the LUT address-occupancy mask is collected
        into :attr:`last_addr_seen` (meaningful for the golden machine);
        ``record_addr_rows`` additionally collects machine 0's per-cycle
        evaluation-fixpoint address masks into :attr:`last_addr_rows`.
        With ``snapshot_stride`` machine 0's full node state is copied
        into :attr:`last_snapshots` every ``stride`` cycles (post-clock,
        so snapshot ``c`` is the state *entering* cycle ``c``) — the
        golden-prefix checkpoints fast-forward restores from.
        """
        d = self.design
        stimulus = np.asarray(stimulus, dtype=np.uint8)
        cycles = stimulus.shape[0]
        outputs = np.empty((cycles, self.B, d.n_outputs), dtype=np.uint8)
        addr_seen = np.zeros(d.n_luts, dtype=np.uint16)
        snaps: list[tuple[int, np.ndarray]] = []
        # The flat machine-0 operand index is fixed for the whole run
        # (no patch/repair happens inside run), so build it once instead
        # of reconstructing it every recorded cycle.
        self._m0_flat_idx = self.lut_inputs[0].reshape(-1).astype(np.intp)
        if record_addr_rows:
            self._addr_capture = []
        try:
            for t in range(cycles):
                outputs[t] = self.step(stimulus[t])
                if record_addresses and d.n_luts:
                    # Post-clock capture (unlike the pre-clock addr_rows
                    # capture inside step): occupancy accumulates the
                    # address each LUT presents *entering* the next cycle.
                    addr_seen |= self._machine0_addr_row()
                if snapshot_stride and (t + 1) % snapshot_stride == 0:
                    snaps.append((t + 1, self.state_snapshot()))
            if record_addr_rows:
                self.last_addr_rows = (
                    np.stack(self._addr_capture)
                    if self._addr_capture
                    else np.zeros((0, d.n_luts), dtype=np.uint16)
                )
        finally:
            self._addr_capture = None
        self.last_addr_seen = addr_seen
        self.last_snapshots = snaps
        return outputs

    # -- golden reference ------------------------------------------------------

    @classmethod
    def golden_trace(
        cls,
        design: CompiledDesign,
        stimulus: np.ndarray,
        settle_passes: int = 1,
        record_addr_rows: bool = False,
        snapshot_stride: int | None = None,
    ) -> GoldenTrace:
        """Run the fault-free design once, recording the reference trace.

        With ``snapshot_stride`` the trace additionally carries full
        node-state checkpoints every ``stride`` cycles, which
        fast-forwarding campaigns restore through ``initial_values``.
        """
        sim = cls(design, settle_passes=settle_passes)
        outputs = sim.run(
            stimulus,
            record_addresses=True,
            record_addr_rows=record_addr_rows,
            snapshot_stride=snapshot_stride,
        )
        final_state = (
            sim.state_snapshot()[design.ff_nodes] if design.n_ffs else np.zeros(0, np.uint8)
        )
        snap_cycles = snap_states = None
        if snapshot_stride and sim.last_snapshots:
            snap_cycles = np.array([c for c, _ in sim.last_snapshots], dtype=np.int64)
            snap_states = np.stack([s for _, s in sim.last_snapshots])
        return GoldenTrace(
            outputs[:, 0, :].copy(),
            sim.last_addr_seen,
            final_state,
            addr_rows=sim.last_addr_rows if record_addr_rows else None,
            snapshot_cycles=snap_cycles,
            snapshots=snap_states,
        )

    # -- detect / repair / persist campaign step ---------------------------------

    def _tables_only_flip_masks(self, n_machines: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-machine flipped-entry masks for tables-only patches.

        Returns ``(eligible, flips)``: ``eligible[m]`` is True when
        machine ``m``'s patch touches nothing but LUT truth tables (its
        wiring, FF fields, constants and output bindings are golden);
        ``flips[m]`` is the ``(n_luts,)`` uint16 mask of truth-table
        entries the patch actually changes.  Fault dropping combines
        these with the golden address-suffix masks to prove an
        unrepaired quiet machine can never deviate again.
        """
        d = self.design
        eligible = np.zeros(n_machines, dtype=bool)
        flips = np.zeros((n_machines, d.n_luts), dtype=np.uint16)
        for m in range(n_machines):
            p = self.patches[m]
            if p.lut_inputs or p.ff_fields or p.consts or p.outputs:
                continue
            eligible[m] = True
            for row, table in p.lut_tables:
                changed = np.flatnonzero(np.asarray(table, dtype=np.uint8) ^ d.lut_tables[row])
                if changed.size:
                    flips[m, row] |= np.bitwise_or.reduce(
                        np.left_shift(np.uint16(1), changed.astype(np.uint16))
                    )
        return eligible, flips

    def run_verdicts(
        self,
        stimulus: np.ndarray,
        golden: GoldenTrace,
        detect_cycles: int,
        persist_cycles: int,
        converge_run: int = 8,
        retire: bool = False,
        addr_suffix: np.ndarray | None = None,
    ) -> list[MachineVerdict]:
        """The paper's injection protocol, for every machine in the batch.

        Phase 1 (up to ``detect_cycles``): outputs are compared against
        the golden trace each cycle.  On the first mismatch the machine's
        configuration is repaired in place (scrub, no reset) and it
        enters phase 2.  Phase 2 (up to ``persist_cycles`` more cycles):
        if outputs match golden for ``converge_run`` consecutive cycles
        the fault was **non-persistent**; machines still diverging when
        the budget runs out are **persistent** (they need a reset, paper
        Figure 7).

        ``retire=True`` (requires ``companion=True`` at construction)
        turns on *fault dropping*: machines whose remaining trajectory
        is provably decided are sealed early and stop there, and the
        kernel counters record the cycles they did not run.  Three exact
        rules seal a machine:

        * its verdict phase already completed (done machines only cost
          cycles);
        * it was repaired and its node values equal the golden
          companion's — every future cycle matches, so the convergence
          cycle is the closed form ``t + (converge_run - run_len)``;
        * it is unrepaired and quiet, its patch flips only LUT
          truth-table entries, its values equal the companion's, and
          ``addr_suffix`` proves golden never addresses a flipped entry
          again — by induction it stays lock-step with golden forever.

        ``addr_suffix`` (optional, enables the third rule) is the
        reverse-OR of the golden per-cycle address masks aligned with
        ``stimulus``: row ``t`` must cover every address golden
        exercises from cycle ``t`` on.  All three rules reproduce the
        byte-identical verdicts of ``retire=False``.

        With the compiled kernel each machine runs to its own verdict
        (:meth:`_run_machine_major`); the numpy body runs the lock-step
        loop (:meth:`_run_lockstep`), the test reference.

        Every machine starts from the start state: the simulator resets
        unless nothing has stepped, patched or repaired it since its
        construction or last :meth:`reset` (direct writes to
        :attr:`values` are not tracked).
        """
        stimulus = np.asarray(stimulus, dtype=np.uint8)
        total_needed = detect_cycles + persist_cycles
        if stimulus.shape[0] < total_needed:
            raise NetlistError(
                f"stimulus has {stimulus.shape[0]} cycles; need {total_needed}"
            )
        if golden.n_cycles < total_needed:
            raise NetlistError("golden trace shorter than the verdict run")
        if retire and not self.companion:
            raise NetlistError("retire=True needs a batch built with companion=True")
        if retire and addr_suffix is not None and addr_suffix.shape[0] < total_needed + 1:
            raise NetlistError("addr_suffix shorter than the verdict run")
        if not self._at_reset:
            self.reset()
        self._at_reset = False
        run = self._run_lockstep if self._native is None else self._run_machine_major
        first_error, recovered, persistent, stop = run(
            stimulus,
            golden.outputs,
            total_needed,
            detect_cycles=detect_cycles,
            converge_run=converge_run,
            retire=retire,
            addr_suffix=addr_suffix if retire else None,
        )
        if retire:
            KERNEL_COUNTERS.count_stops(stop)
        return _verdict_list(first_error, persistent, recovered)

    def _run_lockstep(
        self,
        stimulus: np.ndarray,
        ref_outputs: np.ndarray,
        cycles: int,
        detect_cycles: int,
        converge_run: int,
        retire: bool,
        addr_suffix: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`run_verdicts`' per-cycle rules, every machine per step.

        Same results as :meth:`_run_machine_major`.  A sealed machine
        stays in the batch but its verdict no longer changes; its stop
        cycle is the cycle it was sealed in.  The loop exits once every
        machine is sealed.
        """
        # Verdicts cover the logical machines only (the companion,
        # always the last slot, is excluded from verdicts and from the
        # exit condition).
        n = self.B - 1 if self.companion else self.B
        phase = np.zeros(n, dtype=np.int8)  # 0 watch, 1 converge, 2 done
        first_error = np.full(n, -1, dtype=np.int64)
        recovered = np.full(n, -1, dtype=np.int64)
        run_len = np.zeros(n, dtype=np.int64)
        persistent = np.zeros(n, dtype=bool)
        stop = np.full(n, cycles - 1, dtype=np.int64)
        ref_words, n_bytes, n_words = packed_outputs(ref_outputs, cycles)
        out_padded = np.zeros((self.B, n_words * 8), dtype=np.uint8)
        out_words = out_padded.view(np.uint64)[:n]
        if addr_suffix is not None:
            quiet_ok, flip_masks = self._tables_only_flip_masks(n)

        for t in range(cycles):
            out = self.step(stimulus[t])
            if n_bytes:
                out_padded[:, :n_bytes] = np.packbits(out, axis=1)
            mismatch = np.any(out_words != ref_words[t][None, :], axis=1)
            running = phase != 2

            # Phase 0: first mismatch -> repair, enter phase 1.
            for m in np.flatnonzero((phase == 0) & mismatch):
                first_error[m] = t
                self.repair_machine(int(m))
                phase[m] = 1
                run_len[m] = 0
            # Machines that never err within the detect window are done.
            if t == detect_cycles - 1:
                phase[phase == 0] = 2

            # Phase 1: count consecutive matching cycles.
            watching = phase == 1
            run_len[watching & mismatch] = 0
            good = watching & ~mismatch
            run_len[good] += 1
            conv = good & (run_len >= converge_run)
            recovered[conv] = t
            phase[conv] = 2

            if retire:
                # State-equality sealing against the in-batch golden
                # companion (valid post-repair and post-reset alike),
                # checked only for machines a rule can seal.
                cand = phase == 1
                if addr_suffix is not None:
                    cand |= (phase == 0) & quiet_ok
                rows = np.flatnonzero(cand)
                same = rows[~np.any(self.values[rows] != self.values[-1], axis=1)]
                # Repaired machines whose state re-converged: every
                # future cycle matches, so the verdict is closed-form.
                conv = same[phase[same] == 1]
                u = t + (converge_run - run_len[conv])
                late = u > cycles - 1
                recovered[conv[~late]] = u[~late]
                persistent[conv[late]] = True
                phase[conv] = 2
                # Quiet tables-only machines whose flipped entries are
                # provably never addressed again stay lock-step forever.
                if addr_suffix is not None:
                    quiet = same[phase[same] == 0]
                    safe = ~np.any(flip_masks[quiet] & addr_suffix[t + 1][None, :], axis=1)
                    phase[quiet[safe]] = 2

            stop[running & (phase == 2)] = t
            if np.all(phase == 2):
                break

        # Anything still in phase 1 never re-converged: persistent error.
        persistent[phase == 1] = True
        return first_error, recovered, persistent, stop

    def _run_machine_major(
        self,
        stimulus: np.ndarray,
        ref_outputs: np.ndarray,
        cycles: int,
        retire: bool = False,
        detect_only: bool = False,
        **rules,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The compiled verdict loop over ``cycles`` (needs :attr:`_native`).

        Each machine runs from the current state through its own cycles
        to its own verdict before the next one starts, under exactly the
        per-cycle rules of :meth:`_run_lockstep`, which stays the numpy
        body's path and the test reference.  With ``detect_only`` every
        machine (a companion included) stops at its first mismatch and
        nothing is repaired.  ``rules`` are :meth:`_verdict_fields`'
        ``detect_cycles``, ``converge_run`` and ``addr_suffix``.

        Returns per-machine ``(first_error, recovered, persistent,
        stop)``; ``stop`` is the last cycle a machine ran.  Afterwards
        each machine's state is its own stop cycle's, and repaired
        machines carry golden hardware.
        """
        fields = self._verdict_fields(
            stimulus, ref_outputs, cycles, retire=retire, detect_only=detect_only, **rules
        )
        native.VerdictPlan(self._verdicts_fn, self._native, **fields)()
        first_error = fields["first_error"]
        if not detect_only:
            repaired = np.flatnonzero(first_error >= 0)
            if repaired.size:
                self._restore_hardware(repaired)
        return first_error, fields["recovered"], fields["persistent"].astype(bool), fields["stop"]

    def _verdict_fields(
        self,
        stimulus: np.ndarray,
        ref_outputs: np.ndarray,
        cycles: int,
        detect_cycles: int = 0,
        converge_run: int = 0,
        retire: bool = False,
        addr_suffix: np.ndarray | None = None,
        detect_only: bool = False,
    ) -> dict:
        """Arguments of the compiled verdict loop, result arrays included.

        Raises :class:`NetlistError` for a stimulus window of the wrong
        shape or with non-0/1 entries: the check :meth:`step` makes per
        cycle, made once for the whole window.
        """
        d = self.design
        stimulus = np.asarray(stimulus)
        if stimulus.ndim != 2 or stimulus.shape[0] < cycles or stimulus.shape[1] != d.n_inputs:
            raise NetlistError(
                f"stimulus must hold {cycles} rows of {d.n_inputs} entries, "
                f"got {stimulus.shape}"
            )
        require_binary(stimulus[:cycles], "stimulus")
        n = self.B if detect_only or not self.companion else self.B - 1
        seal = retire and not detect_only
        rule3 = seal and addr_suffix is not None
        no_i, no_u8 = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint8)
        fields = dict(
            # Outputs are 0/1; the lock-step compare reads golden as 0/1 too.
            stim=np.ascontiguousarray(stimulus[:cycles], dtype=np.uint8),
            ref=np.ascontiguousarray(ref_outputs[:cycles] != 0, dtype=np.uint8),
            T=cycles,
            detect=detect_cycles,
            converge=converge_run,
            n_machines=n,
            companion=self.B - 1,
            detect_only=int(detect_only),
            retire=int(seal),
            rule3=int(rule3),
            comp_state=np.empty(cycles * d.n_nodes if seal else 0, dtype=np.uint8),
            gold_gather=no_i, gold_tables=no_u8, gold_ff=no_i,
            gold_unclocked=np.zeros(0, dtype=bool), gold_out=no_i,
            n_const=0, const_nodes=no_i, const_vals=no_u8,
            suffix=np.zeros(0, dtype=np.uint16), quiet=np.zeros(0, dtype=bool),
            flip_ptr=no_i, flip_row=no_i, flip_mask=np.zeros(0, dtype=np.uint16),
            first_error=np.empty(n, dtype=np.int64),
            recovered=np.empty(n, dtype=np.int64),
            stop=np.empty(n, dtype=np.int64),
            persistent=np.empty(n, dtype=np.uint8),
        )
        if not detect_only:
            const_nodes = np.flatnonzero(d.node_kind == int(NodeKind.CONST))
            fields.update(
                gold_gather=np.concatenate(
                    [no_i, *(d.lut_inputs[lv].reshape(-1) for lv in d.levels)]
                ).astype(np.intp),
                gold_tables=np.ascontiguousarray(d.lut_tables, dtype=np.uint8).reshape(-1),
                gold_ff=np.concatenate([d.ff_d, d.ff_ce, d.ff_sr]).astype(np.intp),
                gold_unclocked=np.not_equal(d.ff_clocked, 1),
                gold_out=d.output_nodes.astype(np.intp),
                n_const=const_nodes.size,
                const_nodes=const_nodes,
                const_vals=d.const_values[const_nodes].astype(np.uint8),
            )
        if rule3:
            quiet, flips = self._tables_only_flip_masks(n)
            machine, row = np.nonzero(flips)
            flip_ptr = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(machine, minlength=n), out=flip_ptr[1:])
            fields.update(
                suffix=np.ascontiguousarray(addr_suffix[: cycles + 1], dtype=np.uint16),
                quiet=quiet,
                flip_ptr=flip_ptr,
                flip_row=row.astype(np.intp),
                flip_mask=flips[machine, row],
            )
        return fields


def packed_outputs(ref_outputs: np.ndarray, cycles: int) -> tuple[np.ndarray, int, int]:
    """Pack a ``(>= cycles, n_outputs)`` output trace into uint64 words.

    Returns ``(words, n_bytes, n_words)``: ``words`` is ``(cycles,
    n_words)``, so a per-cycle health check is a handful of word
    compares per machine instead of ``n_outputs`` byte compares.
    A machine's outputs pack into its first ``n_bytes`` bytes.
    """
    n_out = ref_outputs.shape[1]
    n_bytes = (n_out + 7) // 8
    n_words = max(1, (n_bytes + 7) // 8)
    padded = np.zeros((cycles, n_words * 8), dtype=np.uint8)
    if n_out:
        padded[:, :n_bytes] = np.packbits(ref_outputs[:cycles], axis=1)
    return padded.view(np.uint64), n_bytes, n_words


def _verdict_list(
    first_error: np.ndarray, persistent: np.ndarray, recovered: np.ndarray
) -> list[MachineVerdict]:
    return [
        MachineVerdict(
            failed=bool(f >= 0),
            first_error_cycle=int(f),
            persistent=bool(p),
            recovered_cycle=int(r),
        )
        for f, p, r in zip(first_error.tolist(), persistent.tolist(), recovered.tolist())
    ]
