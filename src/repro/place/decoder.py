"""Bitstream decoder: configuration bits -> executable hardware model.

The decoder gives the configuration memory its *meaning*: it reads every
CLB's fields and produces a :class:`CompiledDesign` whose behaviour is
exactly what the configured fabric would compute.  Crucially it decodes
**any** bit pattern, not only router output — a flipped input-mux bit
reroutes a LUT operand, a flipped PIP shorts two nets (modelled as the
AND a keeper-pulled pass-transistor fabric settles to), a flipped clock
mux freezes a slice.  That property is what makes bitstream fault
injection meaningful.

Two entry points:

* :func:`decode_bitstream` — full decode of a golden configuration,
  producing a :class:`DecodedDesign` with resolution caches;
* :meth:`DecodedDesign.patch_for_bit` — the fault-injection fast path:
  the sparse hardware difference caused by flipping one configuration
  bit, computed in ~O(affected cone) without re-decoding the device.

Half-latches appear wherever a mux field selects nothing; each floating
field that the decoded hardware actually reads gets its own
HALF_LATCH node (hidden state the beam can flip but readback cannot see).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro.bitstream.bitstream import ConfigBitstream
from repro.errors import DecodeError
from repro.fpga.device import VirtexDevice
from repro.fpga.geometry import CLB_BITS_PER_CLB, COLUMN_OVERHEAD_BITS, CLB_BITS_PER_ROW
from repro.fpga.halflatch import HalfLatchKind, HalfLatchSite
from repro.fpga.resources import (
    CTRL_CE,
    CTRL_CLK,
    CTRL_SR,
    FF_BYPASS,
    FF_CE_INV,
    FF_INIT,
    FF_LATCH_MODE,
    FF_RESERVED,
    FF_SR_EN,
    DIR_DELTA,
    DIR_OPPOSITE,
    DIR_PERP,
    LocalSource,
    MUX_FIELD_BITS,
    N_OUTPUT_PORTS,
    ResourceKind,
    WIRES_PER_DIRECTION,
    classify_intra,
    ctrl_candidates,
    ctrl_mux_offset,
    ff_config_offset,
    imux_candidates,
    imux_offset,
    lut_content_offset,
    output_mux_offset,
    pip_drive_offset,
    pip_straight_offset,
    pip_turn_offset,
)
from repro.netlist.compiled import (
    NODE_CONST0,
    NODE_CONST1,
    CompiledDesign,
    FFField,
    NodeKind,
    Patch,
)
from repro.netlist.levelize import levelize
from repro.place.configgen import IOBinding

__all__ = ["DecodedDesign", "decode_bitstream"]

#: AND-of-all-four-pins truth table (unused pins tied to const 1).
_AND4_TABLE = np.zeros(16, dtype=np.uint8)
_AND4_TABLE[15] = 1
#: NOT(pin0) with pins 1..3 tied to const 1.
_INV_TABLE = np.zeros(16, dtype=np.uint8)
_INV_TABLE[14] = 1

WireKey = tuple[int, int, int, int]  # (row, col, direction, index) — outgoing
InKey = tuple[int, int, int, int]  # (row, col, side, index) — incoming view

# Hot-path tables: wire resolution runs per live SEU candidate, so it works
# on int directions and precomputed intra-CLB offsets, never on ``Direction``
# or the range-checked ``*_offset`` helpers.


def _plain_sources(cands: tuple) -> tuple[tuple[int | None, int], ...]:
    """Mux candidates as ``(side, index)``; ``side`` is None for local sources."""
    return tuple(
        (None, c.index) if isinstance(c, LocalSource) else (int(c.direction), c.index)
        for c in cands
    )


#: [lut][pin] -> (intra offset of the input-mux field, its candidates).
_IMUX = tuple(
    tuple(
        (imux_offset(lut, pin, 0), _plain_sources(imux_candidates(lut, pin)))
        for pin in range(4)
    )
    for lut in range(4)
)
#: [slice][which] -> (intra offset of the control-mux field, its candidates).
_CTRL = tuple(
    tuple(
        (ctrl_mux_offset(slc, which, 0), _plain_sources(ctrl_candidates(slc, which)))
        for which in range(3)
    )
    for slc in range(2)
)


#: Outgoing direction ``d`` -> the four driver slots of wire (d, w) as
#: (intra offset at wire 0, incoming side): the drive PIP (side -1, fed by
#: output port ``w % 4``), then the straight PIP and the two turn PIPs.
_DRIVER_SLOTS = tuple(
    (
        (pip_drive_offset(d, 0), -1),
        (pip_straight_offset(DIR_OPPOSITE[d], 0), DIR_OPPOSITE[d]),
        *(
            (pip_turn_offset(a, p, 0), a)
            for a in range(4)
            for p, perp in enumerate(DIR_PERP[a])
            if perp == d
        ),
    )
    for d in range(4)
)
_WIRES_PER_CLB = 4 * WIRES_PER_DIRECTION
#: The same slots as arrays indexed [d, slot], for the vectorised build;
#: the drive slot's side reads as 0 and is overwritten.
_SLOT_BASE = np.array([[base for base, _ in slots] for slots in _DRIVER_SLOTS])
_SLOT_SIDE = np.array([[max(side, 0) for _, side in slots] for slots in _DRIVER_SLOTS])
_SIDE_DROW = np.array([dr for dr, _ in DIR_DELTA])
_SIDE_DCOL = np.array([dc for _, dc in DIR_DELTA])
_SIDE_OPPOSITE = np.array(DIR_OPPOSITE)
#: Incoming side -> the (outgoing direction, slot) rows it feeds.
_SIDE_FEEDS = tuple(
    tuple((d, k) for d in range(4) for k in range(1, 4) if _DRIVER_SLOTS[d][k][1] == side)
    for side in range(4)
)
#: Intra-CLB offset -> (kind, detail), the :func:`classify_intra` table.
_INTRA_CLASS = tuple(classify_intra(i) for i in range(CLB_BITS_PER_CLB))


_I64 = partial(array, "q")
_I32 = partial(array, "i")


@dataclass
class _DecodeTables:
    """Flat int tables behind :meth:`DecodedDesign.patch_for_bit`.

    Built once per decoded design from its golden state; every table is
    design-sized except ``wire_gi`` (one int32 per wire of the device).
    Golden wires are numbered ``gi`` in wire-id order.
    """

    #: Sorted linear offsets of the live bits, and each one's
    #: ``(row * cols + col) * 864 + intra``.
    live_lin: array = field(default_factory=_I64)
    live_loc: array = field(default_factory=_I64)
    #: Wire id -> golden index, or -1 for a wire the golden decode never
    #: resolved.
    wire_gi: array = field(default_factory=_I32)
    #: Golden index -> wire id, and its golden value.
    g_wid: array = field(default_factory=_I64)
    g_val: array = field(default_factory=_I64)
    #: Four driver rows per golden wire (``4 * gi + slot``): the linear
    #: offset of the PIP bit and its endpoint (see ``_live_rows``).
    drv_bit: array = field(default_factory=_I64)
    drv_end: array = field(default_factory=_I64)
    #: Route forest: golden wires with at most one live driver, whose
    #: upstream chain ends at a port or a constant.  ``[pre, post)`` is
    #: the pre-order range of a wire's subtree (``pre`` -1 off the
    #: forest) and ``root_port`` the port driving the chain (or -1).
    pre: array = field(default_factory=_I64)
    post: array = field(default_factory=_I64)
    root_port: array = field(default_factory=_I64)
    #: Output-port id -> golden value, or -1 where the decode never
    #: resolved it.
    port_gval: array = field(default_factory=_I32)
    #: CSR of each golden wire's golden readers, in recorded order: a
    #: golden index (wire), or ``-1 - pin id`` / ``-1 - (n_pins + ctrl
    #: id)``; ``cons_fast`` marks readers whose value is the wire's own.
    cons_ptr: array = field(default_factory=_I64)
    cons_code: array = field(default_factory=_I64)
    cons_fast: array = field(default_factory=partial(array, "b"))


class _Flip:
    """Transient state of one ``patch_for_bit`` call.

    ``wires`` overlays re-resolved wire values; ``ands`` holds the AND
    requirements that transient resolution cannot allocate as nodes,
    referenced by negative tickets ``-1 - k``; ``made`` maps each
    materialized ticket to its node and ``rows`` each spare row's inputs
    to its node.  A route-forest wire may stand for its golden value
    unless it lies in ``[lo, hi)`` (below the flipped PIP) or hangs
    under ``dirty_port`` (the flipped output mux); ``port`` /
    ``port_node`` overlay that port's new value.
    """

    __slots__ = (
        "wires", "ands", "made", "rows", "lo", "hi", "dirty_port", "port", "port_node"
    )

    def __init__(self) -> None:
        self.wires: dict[int, int] = {}
        self.ands: list[list[int]] = []
        self.made: dict[int, int] = {}
        self.rows: dict[tuple[int, ...], int] = {}
        self.lo = self.hi = 0
        self.dirty_port = self.port = -2
        self.port_node = 0

    def ticket(self, nodes: list[int]) -> int:
        self.ands.append(nodes)
        return -len(self.ands)


@dataclass
class _Builder:
    """Growable node/LUT-row tables used during decode."""

    kinds: list[int] = field(default_factory=lambda: [int(NodeKind.CONST), int(NodeKind.CONST)])
    const_vals: list[int] = field(default_factory=lambda: [0, 1])
    lut_nodes: list[int] = field(default_factory=list)
    lut_inputs: list[list[int]] = field(default_factory=list)
    lut_tables: list[np.ndarray] = field(default_factory=list)

    def new_node(self, kind: NodeKind, const: int = 0) -> int:
        self.kinds.append(int(kind))
        self.const_vals.append(const)
        return len(self.kinds) - 1

    def new_lut_row(self, node: int, inputs: list[int], table: np.ndarray) -> int:
        self.lut_nodes.append(node)
        self.lut_inputs.append(list(inputs))
        self.lut_tables.append(table)
        return len(self.lut_nodes) - 1


class DecodedDesign:
    """A decoded configuration plus the caches for incremental patching."""

    def __init__(
        self,
        device: VirtexDevice,
        bits: ConfigBitstream,
        io: IOBinding,
        n_spare: int = 32,
    ):
        self.device = device
        self.bits = bits
        self.io = io
        self.n_spare = n_spare
        self._rows, self._cols = device.rows, device.cols

        # Vectorised CLB bit gather: linear offsets of every intra-CLB bit.
        self._clb_matrix = self._build_clb_matrix()

        b = _Builder()
        self._b = b
        n_inputs = len(io.input_order)
        self.input_nodes = [b.new_node(NodeKind.INPUT) for _ in range(n_inputs)]

        nc = device.n_clbs
        # Fabric LUT/FF nodes: row for position p of CLB i is 4*i + p.
        self.first_lut_node = len(b.kinds)
        for _ in range(4 * nc):
            b.new_node(NodeKind.LUT)
        self.first_ff_node = len(b.kinds)
        for _ in range(4 * nc):
            b.new_node(NodeKind.FF)

        # Resolution caches (golden state).
        self.wire_value: dict[WireKey, int] = {}
        self.wire_consumers: dict[WireKey, list[tuple]] = {}
        self.port_value: dict[tuple[int, int, int], int] = {}
        self.port_wires: dict[tuple[int, int, int], list[WireKey]] = {}
        self.pin_source: dict[tuple[int, int, int, int], int] = {}
        self.ctrl_node: dict[tuple[int, int, int, int], int] = {}
        self.halflatch_node: dict[tuple, int] = {}
        self.halflatch_site_of_node: dict[int, HalfLatchSite] = {}
        self._resolving: set[WireKey] = set()

        self._decode_all()
        self.design = self._finalize()
        # Output cone membership, for the structural pre-filter.
        self._cone = self._compute_cone()

    # ------------------------------------------------------------------
    # raw bit access
    # ------------------------------------------------------------------

    def _build_clb_matrix(self) -> np.ndarray:
        """(rows, cols, 864) linear bit offsets of every CLB bit."""
        geo = self.device.geometry
        rows, cols = geo.rows, geo.cols
        fb = geo.clb_frame_bits
        col_base = np.empty(cols, dtype=np.int64)
        for c in range(cols):
            col_base[c] = geo.frame_offset(geo.clb_frame_index(c, 0))
        intra = np.arange(CLB_BITS_PER_CLB, dtype=np.int64)
        minor, i = np.divmod(intra, CLB_BITS_PER_ROW)
        r = np.arange(rows, dtype=np.int64)
        # offset = col_base[c] + minor*frame_bits + overhead + row*18 + i
        mat = (
            col_base[None, :, None]
            + (minor * fb)[None, None, :]
            + COLUMN_OVERHEAD_BITS
            + (r * CLB_BITS_PER_ROW)[:, None, None]
            + i[None, None, :]
        )
        return mat

    def clb_bits(self, row: int, col: int) -> np.ndarray:
        """The 864 configuration bits of one CLB (a gather, not a view)."""
        return self.bits.bits[self._clb_matrix[row, col]]

    def _bit(self, row: int, col: int, intra: int) -> int:
        return int(self.bits.bits[self._clb_matrix[row, col, intra]])

    def _field(self, row: int, col: int, base_offset: int) -> tuple[int, ...]:
        """Selected candidate indices of an 8-bit one-hot field."""
        sel = self.bits.bits[
            self._clb_matrix[row, col, base_offset : base_offset + MUX_FIELD_BITS]
        ].tolist()
        return tuple([i for i, v in enumerate(sel) if v])

    # ------------------------------------------------------------------
    # node helpers
    # ------------------------------------------------------------------

    def lut_node(self, row: int, col: int, pos: int) -> int:
        return self.first_lut_node + 4 * self.device.clb_index(row, col) + pos

    def ff_node(self, row: int, col: int, pos: int) -> int:
        return self.first_ff_node + 4 * self.device.clb_index(row, col) + pos

    def lut_row(self, row: int, col: int, pos: int) -> int:
        return 4 * self.device.clb_index(row, col) + pos

    def ff_row(self, row: int, col: int, pos: int) -> int:
        return 4 * self.device.clb_index(row, col) + pos

    def _get_halflatch(self, key: tuple, site: HalfLatchSite) -> int:
        node = self.halflatch_node.get(key)
        if node is None:
            node = self._b.new_node(NodeKind.HALF_LATCH, 1)
            self.halflatch_node[key] = node
            self.halflatch_site_of_node[node] = site
        return node

    def _and_node(self, sources: list[int]) -> int:
        """A fabric-contention node: AND of up to 4 sources (extra LUT row)."""
        srcs = sources[:4] + [NODE_CONST1] * (4 - min(len(sources), 4))
        node = self._b.new_node(NodeKind.LUT)
        self._b.new_lut_row(node, srcs, _AND4_TABLE.copy())
        return node

    # ------------------------------------------------------------------
    # golden resolution
    # ------------------------------------------------------------------

    def _resolve_local(self, row: int, col: int, index: int) -> int:
        return (
            self.lut_node(row, col, index)
            if index < 4
            else self.ff_node(row, col, index - 4)
        )

    def _incoming_key(self, row: int, col: int, side: int, w: int) -> WireKey | None:
        """The neighbour's outgoing wire that CLB (row, col) sees arriving
        from ``side`` (:meth:`VirtexDevice.incoming_wire` in int form), or
        ``None`` at the die edge."""
        d_row, d_col = DIR_DELTA[side]
        n_row, n_col = row + d_row, col + d_col
        if 0 <= n_row < self._rows and 0 <= n_col < self._cols:
            return (n_row, n_col, DIR_OPPOSITE[side], w)
        return None

    def _tap_node(self, coords: InKey) -> int | None:
        """The node a tap puts on incoming wire ``coords`` (an input tap
        wins over a net tap), or None where nothing taps it.  A tap wins
        over the neighbour's wire and over the pad at the die edge."""
        tap = self.io.taps.get(coords)
        if tap is not None:
            return self.input_nodes[tap]
        net_tap = self.io.net_taps.get(coords)
        if net_tap is not None:
            return self._resolve_local(net_tap[0], net_tap[1], net_tap[2])
        return None

    def _resolve_incoming(self, row: int, col: int, side: int, w: int, consumer: tuple) -> int:
        coords: InKey = (row, col, side, w)
        tapped = self._tap_node(coords)
        if tapped is not None:
            return tapped
        key = self._incoming_key(row, col, side, w)
        if key is None:
            site = HalfLatchSite(HalfLatchKind.WIRE, row, col, (side, w))
            return self._get_halflatch(("pad", coords), site)
        node = self._resolve_wire(key)
        self.wire_consumers.setdefault(key, []).append(consumer)
        return node

    def _resolve_wire(self, key: WireKey) -> int:
        if key in self.wire_value:
            return self.wire_value[key]
        if key in self._resolving:
            # Combinational wire loop: floats at the keeper value.
            return NODE_CONST1
        self._resolving.add(key)
        try:
            r, c, d, w = key
            mat = self._clb_matrix[r, c]
            bits = self.bits.bits
            nodes: list[int] = []
            for base, side in _DRIVER_SLOTS[d]:
                if not bits[mat[base + w]]:
                    continue
                if side < 0:
                    p = w % N_OUTPUT_PORTS
                    nodes.append(self._resolve_port(r, c, p))
                    self.port_wires.setdefault((r, c, p), []).append(key)
                else:
                    nodes.append(self._resolve_incoming(r, c, side, w, ("wire", key)))
            nodes = sorted(set(nodes))
            if not nodes:
                site = HalfLatchSite(HalfLatchKind.WIRE, r, c, (d, w))
                node = self._get_halflatch(("wire", key), site)
            elif len(nodes) == 1:
                node = nodes[0]
            else:
                node = self._and_node(nodes)
            self.wire_value[key] = node
            return node
        finally:
            self._resolving.discard(key)

    def _resolve_port(self, row: int, col: int, port: int) -> int:
        pkey = (row, col, port)
        if pkey in self.port_value:
            return self.port_value[pkey]
        sel = self._field(row, col, output_mux_offset(port, 0))
        if not sel:
            site = HalfLatchSite(HalfLatchKind.OUTPUT_PORT, row, col, (port,))
            node = self._get_halflatch(("portfloat", pkey), site)
        else:
            nodes = sorted({self._resolve_local(row, col, s) for s in sel})
            node = nodes[0] if len(nodes) == 1 else self._and_node(nodes)
        self.port_value[pkey] = node
        return node

    def _resolve_pin(self, row: int, col: int, pos: int, pin: int) -> int:
        key = (row, col, pos, pin)
        if key in self.pin_source:
            return self.pin_source[key]
        node = self._pin_value(row, col, pos, pin)
        self.pin_source[key] = node
        return node

    def _pin_value(self, row: int, col: int, pos: int, pin: int) -> int:
        base, cands = _IMUX[pos][pin]
        consumer = ("pin", row, col, pos, pin)
        nodes: list[int] = []
        for ci in self._field(row, col, base):
            side, index = cands[ci]
            if side is None:
                nodes.append(self._resolve_local(row, col, index))
            else:
                nodes.append(self._resolve_incoming(row, col, side, index, consumer))
        nodes = sorted(set(nodes))
        if not nodes:
            site = HalfLatchSite(HalfLatchKind.LUT_PIN, row, col, (pos, pin))
            return self._get_halflatch(("imux", row, col, pos, pin), site)
        if len(nodes) == 1:
            return nodes[0]
        return self._and_node(nodes)

    def _resolve_ctrl(self, row: int, col: int, slc: int, which: int) -> int:
        key = (row, col, slc, which)
        if key in self.ctrl_node:
            return self.ctrl_node[key]
        node = self._ctrl_value(row, col, slc, which)
        self.ctrl_node[key] = node
        return node

    def _ctrl_value(self, row: int, col: int, slc: int, which: int) -> int:
        base, cands = _CTRL[slc][which]
        consumer = ("ctrl", row, col, slc, which)
        nodes: list[int] = []
        for ci in self._field(row, col, base):
            side, index = cands[ci]
            if side is None:
                nodes.append(self._resolve_local(row, col, index))
            else:
                nodes.append(self._resolve_incoming(row, col, side, index, consumer))
        nodes = sorted(set(nodes))
        if not nodes:
            site = HalfLatchSite(HalfLatchKind.CTRL, row, col, (slc, which))
            return self._get_halflatch(("ctrl", row, col, slc, which), site)
        if len(nodes) == 1:
            return nodes[0]
        return self._and_node(nodes)

    def _slice_clocked(self, row: int, col: int, slc: int) -> bool:
        """Clocked iff the CLK field is exactly the one-hot global-clock tap."""
        return self._field(row, col, ctrl_mux_offset(slc, CTRL_CLK, 0)) == (0,)

    # ------------------------------------------------------------------
    # full decode
    # ------------------------------------------------------------------

    def _decode_all(self) -> None:
        dev = self.device
        b = self._b
        nc = dev.n_clbs
        self._ff_d = np.zeros(4 * nc, dtype=np.int32)
        self._ff_ce = np.full(4 * nc, NODE_CONST1, dtype=np.int32)
        self._ff_sr = np.full(4 * nc, NODE_CONST0, dtype=np.int32)
        self._ff_init = np.zeros(4 * nc, dtype=np.uint8)
        self._ff_clocked = np.ones(4 * nc, dtype=np.uint8)

        # Fabric LUT rows must occupy rows [0, 4*nc) in order; reserve them
        # first, then fill (extra AND rows created during resolution land
        # after them).
        for row in range(dev.rows):
            for col in range(dev.cols):
                for pos in range(4):
                    node = self.lut_node(row, col, pos)
                    table = np.zeros(16, dtype=np.uint8)
                    b.new_lut_row(node, [NODE_CONST1] * 4, table)

        for row in range(dev.rows):
            for col in range(dev.cols):
                cbits = self.clb_bits(row, col)
                for pos in range(4):
                    lrow = self.lut_row(row, col, pos)
                    b.lut_tables[lrow] = cbits[
                        lut_content_offset(pos, 0) : lut_content_offset(pos, 0) + 16
                    ].astype(np.uint8).copy()
                    b.lut_inputs[lrow] = [
                        self._resolve_pin(row, col, pos, pin) for pin in range(4)
                    ]
                for slc in range(2):
                    ce = self._resolve_ctrl(row, col, slc, CTRL_CE)
                    sr = self._resolve_ctrl(row, col, slc, CTRL_SR)
                    clocked = self._slice_clocked(row, col, slc)
                    for pos in (2 * slc, 2 * slc + 1):
                        frow = self.ff_row(row, col, pos)
                        init = int(cbits[ff_config_offset(pos, FF_INIT)])
                        bypass = int(cbits[ff_config_offset(pos, FF_BYPASS)])
                        ce_inv = int(cbits[ff_config_offset(pos, FF_CE_INV)])
                        sr_en = int(cbits[ff_config_offset(pos, FF_SR_EN)])
                        latch = int(cbits[ff_config_offset(pos, FF_LATCH_MODE)])
                        self._ff_d[frow] = (
                            self._resolve_pin(row, col, pos, 0)
                            if bypass
                            else self.lut_node(row, col, pos)
                        )
                        self._ff_ce[frow] = self._invert(ce) if ce_inv else ce
                        self._ff_sr[frow] = sr if sr_en else NODE_CONST0
                        self._ff_init[frow] = init
                        self._ff_clocked[frow] = 1 if (clocked and not latch) else 0

        # Spare rows for fault patches: inert AND4 gates fed by const 1.
        self.spare_rows: list[int] = []
        self.spare_nodes: list[int] = []
        for _ in range(self.n_spare):
            node = b.new_node(NodeKind.LUT)
            srow = b.new_lut_row(node, [NODE_CONST1] * 4, _AND4_TABLE.copy())
            self.spare_rows.append(srow)
            self.spare_nodes.append(node)
        self._spare_set = frozenset(self.spare_rows)

    def _invert(self, node: int) -> int:
        if node == NODE_CONST0:
            return NODE_CONST1
        if node == NODE_CONST1:
            return NODE_CONST0
        inv = self._b.new_node(NodeKind.LUT)
        self._b.new_lut_row(inv, [node] + [NODE_CONST1] * 3, _INV_TABLE.copy())
        return inv

    def _finalize(self) -> CompiledDesign:
        b = self._b
        dev = self.device
        n_luts = len(b.lut_nodes)
        lut_nodes = np.array(b.lut_nodes, dtype=np.int32)
        lut_inputs = np.array(b.lut_inputs, dtype=np.int32)
        lut_tables = np.stack(b.lut_tables).astype(np.uint8)

        node_of_lut_row = {int(lut_nodes[r]): r for r in range(n_luts)}
        lut_sources: list[list[int]] = []
        for r in range(n_luts):
            if r in self._spare_set:
                lut_sources.append([])  # spares forced into the last level below
                continue
            srcs = [
                node_of_lut_row[int(s)]
                for s in lut_inputs[r]
                if int(s) in node_of_lut_row
            ]
            lut_sources.append(srcs)
        levels, _ = levelize(n_luts, lut_sources)
        # Pull spare rows out of whatever level they landed in and append
        # them as a dedicated final level so patches may wire them to any
        # signal (evaluated last; consumers see them next pass).
        spare = np.array(sorted(self._spare_set), dtype=np.int64)
        levels = [lv[~np.isin(lv, spare)] for lv in levels]
        levels = [lv for lv in levels if lv.size]
        levels.append(spare)

        outputs = [
            self._resolve_local(r, c, s) for (r, c, s) in self.io.output_probes
        ]
        ff_nodes = np.arange(
            self.first_ff_node, self.first_ff_node + 4 * dev.n_clbs, dtype=np.int32
        )
        design = CompiledDesign(
            name=f"decoded[{dev.name}]",
            n_nodes=len(b.kinds),
            node_kind=np.array(b.kinds, dtype=np.uint8),
            const_values=np.array(b.const_vals, dtype=np.uint8),
            input_nodes=np.array(self.input_nodes, dtype=np.int32),
            output_nodes=np.array(outputs, dtype=np.int32),
            lut_nodes=lut_nodes,
            lut_inputs=lut_inputs,
            lut_tables=lut_tables,
            levels=levels,
            ff_nodes=ff_nodes,
            ff_d=self._ff_d,
            ff_ce=self._ff_ce,
            ff_sr=self._ff_sr,
            ff_init=self._ff_init,
            ff_clocked=self._ff_clocked,
        )
        design.validate()
        return design

    # ------------------------------------------------------------------
    # output cone (structural pre-filter)
    # ------------------------------------------------------------------

    def _compute_cone(self) -> np.ndarray:
        d = self.design
        in_cone = np.zeros(d.n_nodes, dtype=bool)
        row_of_lut_node = {int(n): r for r, n in enumerate(d.lut_nodes)}
        row_of_ff_node = {int(n): r for r, n in enumerate(d.ff_nodes)}
        stack = [int(n) for n in d.output_nodes]
        while stack:
            n = stack.pop()
            if in_cone[n]:
                continue
            in_cone[n] = True
            if n in row_of_lut_node:
                stack.extend(int(s) for s in d.lut_inputs[row_of_lut_node[n]])
            elif n in row_of_ff_node:
                r = row_of_ff_node[n]
                stack.extend(
                    (int(d.ff_d[r]), int(d.ff_ce[r]), int(d.ff_sr[r]))
                )
        return in_cone

    def node_in_cone(self, node: int) -> bool:
        return bool(self._cone[node])

    def patch_is_relevant(self, patch: Patch) -> bool:
        """Can this patch possibly change the outputs?

        True iff some patch entry targets a node inside the output cone.
        Spare-row entries count as relevant only through the consumer
        entry that points a cone node at them, which the same patch must
        contain.
        """
        d = self.design
        spare_set = self._spare_set
        for row, _ in patch.lut_tables:
            if row not in spare_set and self._cone[d.lut_nodes[row]]:
                return True
        for row, _, _ in patch.lut_inputs:
            if row not in spare_set and self._cone[d.lut_nodes[row]]:
                return True
        for row, _, _ in patch.ff_fields:
            if self._cone[d.ff_nodes[row]]:
                return True
        for node, _ in patch.consts:
            if self._cone[node]:
                return True
        return bool(patch.outputs)

    # ------------------------------------------------------------------
    # decode tables for the live-bit fast path
    # ------------------------------------------------------------------

    def _wid(self, row: int, col: int, d: int, w: int) -> int:
        """Dense id of outgoing wire (row, col, d, w) in the decode tables."""
        return ((row * self._cols + col) * 4 + d) * WIRES_PER_DIRECTION + w

    def _pid(self, row: int, col: int, port: int) -> int:
        """Dense id of output port ``port`` of CLB (row, col)."""
        return (row * self._cols + col) * N_OUTPUT_PORTS + port

    def _wire_key(self, wid: int) -> WireKey:
        rc, dw = divmod(wid, _WIRES_PER_CLB)
        row, col = divmod(rc, self._cols)
        d, w = divmod(dw, WIRES_PER_DIRECTION)
        return (row, col, d, w)

    def _incoming_end(self, row: int, col: int, side: int, w: int) -> int:
        """Endpoint of what CLB (row, col) sees arriving from ``side``:
        the upstream wire id, or ``-1 - node`` for a constant (an input
        tap, a net tap, or the keeper of a pad at the die edge)."""
        coords: InKey = (row, col, side, w)
        tapped = self._tap_node(coords)
        if tapped is not None:
            return -1 - tapped
        key = self._incoming_key(row, col, side, w)
        if key is None:
            return -1 - self.halflatch_node.get(("pad", coords), NODE_CONST1)
        return self._wid(*key)

    def _live_rows(self, wid: int) -> list[tuple[int, int]]:
        """The driver rows of wire ``wid`` whose PIP bit is set now, as
        (slot, endpoint).  Slot 0 is the drive PIP, whose endpoint is an
        output-port id; slots 1..3 (straight, then turns) carry
        :meth:`_incoming_end` codes."""
        bits = self.bits.bits
        t = self._tables
        gi = t.wire_gi[wid]
        if gi >= 0:
            k = 4 * gi
            return [(s, t.drv_end[k + s]) for s in range(4) if bits[t.drv_bit[k + s]]]
        row, col, d, w = self._wire_key(wid)
        mat = self._clb_matrix[row, col]
        port = self._pid(row, col, w % N_OUTPUT_PORTS)
        return [
            (s, self._incoming_end(row, col, side, w) if s else port)
            for s, (base, side) in enumerate(_DRIVER_SLOTS[d])
            if bits[mat[base + w]]
        ]

    @cached_property
    def _tables(self) -> _DecodeTables:
        """Build the decode tables from the golden state (once, on the
        first :meth:`patch_for_bit`, while the bits are golden)."""
        rows, cols = self._rows, self._cols
        n_pins = 16 * rows * cols
        bits = self.bits.bits
        mat = self._clb_matrix
        t = _DecodeTables()

        r, c, intra = np.nonzero(self.live_bits[mat])
        lin = mat[r, c, intra]
        order = np.argsort(lin)
        t.live_lin.frombytes(lin[order].astype(np.int64).tobytes())
        loc = (r * cols + c) * CLB_BITS_PER_CLB + intra
        t.live_loc.frombytes(loc[order].astype(np.int64).tobytes())

        # Golden wires in wire-id order, and their four driver rows.
        keys = np.array(list(self.wire_value), dtype=np.int64).reshape(-1, 4)
        g_val = np.array(list(self.wire_value.values()), dtype=np.int64)
        kr, kc, kd, kw = keys.T
        wids = ((kr * cols + kc) * 4 + kd) * WIRES_PER_DIRECTION + kw
        order = np.argsort(wids)
        kr, kc, kd, kw, wids, g_val = (a[order] for a in (kr, kc, kd, kw, wids, g_val))
        n = len(wids)
        wire_gi = np.full(rows * cols * _WIRES_PER_CLB, -1, dtype=np.int32)
        wire_gi[wids] = np.arange(n, dtype=np.int32)
        drv_bit = mat[kr[:, None], kc[:, None], _SLOT_BASE[kd] + kw[:, None]]
        side = _SLOT_SIDE[kd]
        nr = kr[:, None] + _SIDE_DROW[side]
        nc = kc[:, None] + _SIDE_DCOL[side]
        inside = (nr >= 0) & (nr < rows) & (nc >= 0) & (nc < cols)
        drv_end = np.where(
            inside,
            ((nr * cols + nc) * 4 + _SIDE_OPPOSITE[side]) * WIRES_PER_DIRECTION + kw[:, None],
            -1 - NODE_CONST1,
        )
        drv_end[:, 0] = (kr * cols + kc) * N_OUTPUT_PORTS + kw % N_OUTPUT_PORTS
        for gi, k in zip(*np.nonzero(~inside[:, 1:])):
            coords = (int(kr[gi]), int(kc[gi]), int(side[gi, k + 1]), int(kw[gi]))
            drv_end[gi, k + 1] = -1 - self.halflatch_node.get(("pad", coords), NODE_CONST1)
        for coords in self.io.taps.keys() | self.io.net_taps.keys():
            tr, tc, tside, tw = coords
            node = self._tap_node(coords)
            for td, k in _SIDE_FEEDS[tside]:
                gi = wire_gi[self._wid(tr, tc, td, tw)]
                if gi >= 0:
                    drv_end[gi, k] = -1 - node
        live_rows = bits[drv_bit].astype(bool)

        t.g_wid.frombytes(wids.tobytes())
        t.g_val.frombytes(g_val.tobytes())
        t.wire_gi.frombytes(wire_gi.tobytes())
        t.drv_bit.frombytes(drv_bit.astype(np.int64).tobytes())
        t.drv_end.frombytes(drv_end.astype(np.int64).tobytes())
        port_gval = np.full(rows * cols * N_OUTPUT_PORTS, -1, dtype=np.int32)
        for (pr, pc, p), node in self.port_value.items():
            port_gval[self._pid(pr, pc, p)] = node
        t.port_gval.frombytes(port_gval.tobytes())

        # The route forest: a golden wire with exactly one live driver row
        # hangs under that driver when it is a wire, and roots a chain when
        # it is a port or a constant; so does a floating wire.
        n_live = live_rows.sum(axis=1).tolist()
        first = live_rows.argmax(axis=1).tolist()
        ends = drv_end.tolist()
        parent = [-1] * n
        roots: list[tuple[int, int]] = []  # (gi, driving port or -1)
        for gi in range(n):
            if n_live[gi] == 0:
                roots.append((gi, -1))
            elif n_live[gi] == 1:
                k = first[gi]
                end = ends[gi][k]
                if k == 0:
                    roots.append((gi, end))
                elif end < 0:
                    roots.append((gi, -1))
                else:
                    parent[gi] = int(wire_gi[end])

        # Golden readers, in recorded order.
        cons: list[list[tuple[int, bool]]] = []
        for wid in t.g_wid:
            row = []
            for consumer in self.wire_consumers.get(self._wire_key(wid), ()):
                if consumer[0] == "wire":
                    row.append((int(wire_gi[self._wid(*consumer[1])]), False))
                elif consumer[0] == "pin":
                    _, cr, cc, pos, pin = consumer
                    code = -1 - (((cr * cols + cc) * 4 + pos) * 4 + pin)
                    row.append((code, len(self._field(cr, cc, _IMUX[pos][pin][0])) == 1))
                else:
                    _, cr, cc, slc, which = consumer
                    code = -1 - (n_pins + ((cr * cols + cc) * 2 + slc) * 3 + which)
                    row.append((code, len(self._field(cr, cc, _CTRL[slc][which][0])) == 1))
            cons.append(row)
        children = [[code for code, _ in row if code >= 0 and parent[code] == gi]
                    for gi, row in enumerate(cons)]

        # Pre-order walk of the forest: the subtree of gi is [pre, post).
        # Wires the walk never reaches (contention, loops, and everything
        # they feed) keep pre = -1.
        pre = [-1] * n
        root_port = [-1] * n
        visit: list[int] = []
        for root, port in roots:
            stack = [root]
            while stack:
                gi = stack.pop()
                pre[gi] = len(visit)
                root_port[gi] = port
                visit.append(gi)
                stack.extend(children[gi])
        post = [0] * n
        for gi in reversed(visit):
            post[gi] = pre[gi] + 1 + sum(post[ch] - pre[ch] for ch in children[gi])
        t.pre.extend(pre)
        t.post.extend(post)
        t.root_port.extend(root_port)
        t.cons_ptr.append(0)
        for row in cons:
            for code, fast in row:
                t.cons_code.append(code)
                t.cons_fast.append(pre[code] >= 0 if code >= 0 else fast)
            t.cons_ptr.append(len(t.cons_code))
        return t

    # ------------------------------------------------------------------
    # transient (overlay) resolution for patch computation
    # ------------------------------------------------------------------

    def _t_source(self, wid: int, flip: _Flip, stack: set[int]) -> int:
        """Value of upstream wire ``wid`` under the flip: one lookup when
        it is a route-forest wire whose chain holds no dirty wire or port,
        else a walk."""
        t = self._tables
        gi = t.wire_gi[wid]
        if gi >= 0:
            pre = t.pre[gi]
            if pre >= 0 and not flip.lo <= pre < flip.hi and t.root_port[gi] != flip.dirty_port:
                return t.g_val[gi]
        return self._t_wire(wid, flip, stack)

    def _t_wire(self, wid: int, flip: _Flip, stack: set[int]) -> int:
        """Re-resolve wire ``wid`` through the current bits."""
        value = flip.wires.get(wid)
        if value is not None:
            return value
        if wid in stack:
            # Combinational wire loop: floats at the keeper value.
            return NODE_CONST1
        stack.add(wid)
        try:
            nodes: list[int] = []
            for slot, end in self._live_rows(wid):
                if slot == 0:
                    nodes.append(self._t_port(end, flip))
                else:
                    nodes.append(-1 - end if end < 0 else self._t_source(end, flip, stack))
            nodes = sorted(set(nodes))
            if not nodes:
                # Use the golden keeper node when one exists; else const 1.
                return self.halflatch_node.get(("wire", self._wire_key(wid)), NODE_CONST1)
            if len(nodes) == 1:
                return nodes[0]
            return flip.ticket(nodes)
        finally:
            stack.discard(wid)

    def _t_port(self, pid: int, flip: _Flip) -> int:
        """Port value under the current bits, without allocating nodes."""
        if pid == flip.port:
            return flip.port_node
        node = self._tables.port_gval[pid]
        if node >= 0:
            return node
        rc, p = divmod(pid, N_OUTPUT_PORTS)
        r, c = divmod(rc, self._cols)
        sel = self._field(r, c, output_mux_offset(p, 0))
        if not sel:
            return self.halflatch_node.get(("portfloat", (r, c, p)), NODE_CONST1)
        nodes = sorted({self._resolve_local(r, c, s) for s in sel})
        if len(nodes) == 1:
            return nodes[0]
        return flip.ticket(nodes)

    def _t_mux(
        self, row: int, col: int, base: int, cands: tuple, keeper_key: tuple, flip: _Flip
    ) -> int:
        """A LUT-pin or control mux under the current bits."""
        nodes: list[int] = []
        for ci in self._field(row, col, base):
            side, index = cands[ci]
            if side is None:
                nodes.append(self._resolve_local(row, col, index))
            else:
                end = self._incoming_end(row, col, side, index)
                nodes.append(-1 - end if end < 0 else self._t_source(end, flip, set()))
        nodes = sorted(set(nodes))
        if not nodes:
            return self.halflatch_node.get(keeper_key, NODE_CONST1)
        if len(nodes) == 1:
            return nodes[0]
        return flip.ticket(nodes)

    def _t_pin(self, row: int, col: int, pos: int, pin: int, flip: _Flip) -> int:
        base, cands = _IMUX[pos][pin]
        return self._t_mux(row, col, base, cands, ("imux", row, col, pos, pin), flip)

    def _t_ctrl(self, row: int, col: int, slc: int, which: int, flip: _Flip) -> int:
        base, cands = _CTRL[slc][which]
        return self._t_mux(row, col, base, cands, ("ctrl", row, col, slc, which), flip)

    # ------------------------------------------------------------------
    # patch assembly
    # ------------------------------------------------------------------

    def _materialize(self, value: int, flip: _Flip, patch: Patch, spare_cursor: list[int]) -> int:
        """Turn a transient result (maybe an AND ticket) into a real node.

        An AND takes one spare row per distinct input set: every reader
        of a ticket, and every ticket with those inputs, shares it
        (``flip.made`` / ``flip.rows``), so each ticket is walked once.
        Exhaustion degrades to the first source (logged via DecodeError
        would abort campaigns, so degrade silently — a single-bit fault
        never needs more than two spares in practice).
        """
        if value >= 0:
            return value
        node = flip.made.get(value)
        if node is None:
            sources = flip.ands[-1 - value]
            real = [self._materialize(s, flip, patch, spare_cursor) for s in sources]
            inputs = tuple(real[:4])
            node = flip.rows.get(inputs)
            if node is None and spare_cursor[0] >= len(self.spare_rows):
                node = real[0]
            elif node is None:
                k = spare_cursor[0]
                spare_cursor[0] += 1
                for pin, src in enumerate(inputs):
                    patch.lut_inputs.append((self.spare_rows[k], pin, src))
                node = flip.rows[inputs] = self.spare_nodes[k]
            flip.made[value] = node
        return node

    def _pin_patch(
        self, row: int, col: int, pos: int, pin: int, new_value: int,
        flip: _Flip, patch: Patch, spare_cursor: list[int],
    ) -> None:
        """Emit patch entries retargeting one LUT pin (and a bypass FF's D)."""
        old = self.pin_source.get((row, col, pos, pin))
        node = self._materialize(new_value, flip, patch, spare_cursor)
        if old is not None and node == old:
            return
        patch.lut_inputs.append((self.lut_row(row, col, pos), pin, node))
        if pin == 0:
            frow = self.ff_row(row, col, pos)
            if int(self.design.ff_d[frow]) == (old if old is not None else -2):
                # Bypass FF reads pin 0 directly.
                if int(self._bit(row, col, ff_config_offset(pos, FF_BYPASS))):
                    patch.ff_fields.append((frow, FFField.D, node))

    def _ctrl_patch(
        self, row: int, col: int, slc: int, which: int, new_value: int,
        flip: _Flip, patch: Patch, spare_cursor: list[int],
    ) -> None:
        old = self.ctrl_node.get((row, col, slc, which))
        node = self._materialize(new_value, flip, patch, spare_cursor)
        if old is not None and node == old:
            return
        for pos in (2 * slc, 2 * slc + 1):
            frow = self.ff_row(row, col, pos)
            if which == CTRL_CE:
                if int(self._bit(row, col, ff_config_offset(pos, FF_CE_INV))):
                    continue  # inverted CE not retargeted incrementally
                patch.ff_fields.append((frow, FFField.CE, node))
            elif which == CTRL_SR:
                if int(self._bit(row, col, ff_config_offset(pos, FF_SR_EN))):
                    patch.ff_fields.append((frow, FFField.SR, node))

    def _propagate_wire_change(
        self, seeds: dict[int, int], flip: _Flip, patch: Patch, spare_cursor: list[int]
    ) -> None:
        """Push re-resolved wire values through the golden consumer rows."""
        t = self._tables
        worklist = list(seeds)
        flip.wires.update(seeds)
        seen = set(worklist)
        while worklist:
            wid = worklist.pop()
            value = flip.wires[wid]
            gi = t.wire_gi[wid]
            if gi < 0:
                continue  # nobody golden reads it
            for j in range(t.cons_ptr[gi], t.cons_ptr[gi + 1]):
                code = t.cons_code[j]
                fast = t.cons_fast[j]
                if code >= 0:
                    wid2 = t.g_wid[code]
                    if wid2 in seen:
                        continue
                    new_val = value if fast else self._t_wire(wid2, flip, set())
                    if new_val != t.g_val[code]:
                        flip.wires[wid2] = new_val
                        seen.add(wid2)
                        worklist.append(wid2)
                else:
                    self._reader_patch(
                        code, value if fast else None, flip, patch, spare_cursor
                    )

    def _reader_patch(
        self, code: int, value: int | None, flip: _Flip, patch: Patch, spare_cursor: list[int]
    ) -> None:
        """Retarget the pin or control mux behind reader ``code`` to
        ``value``, or to its mux re-resolved under the flip when None."""
        cols = self._cols
        x = -1 - code
        n_pins = 16 * self._rows * cols
        if x < n_pins:
            rcp, pin = divmod(x, 4)
            rc, pos = divmod(rcp, 4)
            r, c = divmod(rc, cols)
            if value is None:
                value = self._t_pin(r, c, pos, pin, flip)
            self._pin_patch(r, c, pos, pin, value, flip, patch, spare_cursor)
        else:
            rcs, which = divmod(x - n_pins, 3)
            rc, slc = divmod(rcs, 2)
            r, c = divmod(rc, cols)
            if value is None:
                value = self._t_ctrl(r, c, slc, which, flip)
            self._ctrl_patch(r, c, slc, which, value, flip, patch, spare_cursor)

    # ------------------------------------------------------------------
    # the fault-injection fast path
    # ------------------------------------------------------------------

    @cached_property
    def live_bits(self) -> np.ndarray:
        """One bool per linear configuration bit: may flipping it change
        the decoded hardware in a way the outputs can see?

        False settles a bit without any per-bit work.  The mask is a pure
        function of the device geometry and the frozen golden state (the
        output cone, ``port_value``, ``wire_value``, ``wire_consumers``) —
        not of the bit values — built on first use, one numpy assignment
        per intra-CLB offset over the whole CLB grid:

        * LUT content: the LUT is in the output cone;
        * LUT input mux: the LUT is in the cone, or (pin 0, which a bypass
          FF reads) the FF at the same position is;
        * FF config: the FF is in the cone, except INIT (no reset happens
          under the injection protocol) and the reserved bit;
        * slice control mux: either FF of the slice is in the cone;
        * output mux: the golden decode resolved the port (it drives a
          wire someone reads);
        * PIPs: the target wire is resolved or read by the golden design.

        Everything else — column overhead, clock, IOB and BRAM frames,
        PIP-reserved, carry and reserved offsets — is inert.
        """
        rows, cols = self._rows, self._cols
        d = self.design
        n_fabric = 4 * rows * cols
        lut_cone = self._cone[d.lut_nodes[:n_fabric]].reshape(rows, cols, 4)
        ff_cone = self._cone[d.ff_nodes].reshape(rows, cols, 4)
        port_live = np.zeros((rows, cols, N_OUTPUT_PORTS), dtype=bool)
        if self.port_value:
            port_live[tuple(np.array(list(self.port_value)).T)] = True
        wire_live = np.zeros((rows, cols, 4, WIRES_PER_DIRECTION), dtype=bool)
        wires = self.wire_value.keys() | self.wire_consumers.keys()
        if wires:
            wire_live[tuple(np.array(list(wires)).T)] = True

        clb_live = np.zeros((rows, cols, CLB_BITS_PER_CLB), dtype=bool)
        for intra in range(CLB_BITS_PER_CLB):
            kind, detail = classify_intra(intra)
            if kind is ResourceKind.LUT_CONTENT:
                live = lut_cone[:, :, detail[0]]
            elif kind is ResourceKind.LUT_INPUT_MUX:
                lut, pin, _ = detail
                live = lut_cone[:, :, lut]
                if pin == 0:  # a bypass FF reads pin 0 directly
                    live = live | ff_cone[:, :, lut]
            elif kind is ResourceKind.FF_CONFIG:
                ff, role = detail
                if role in (FF_INIT, FF_RESERVED):
                    continue
                live = ff_cone[:, :, ff]
            elif kind is ResourceKind.CTRL_MUX:
                slc = detail[0]
                live = ff_cone[:, :, 2 * slc] | ff_cone[:, :, 2 * slc + 1]
            elif kind is ResourceKind.OUTPUT_MUX:
                live = port_live[:, :, detail[0]]
            elif kind is ResourceKind.PIP_DRIVE:
                d_out, w = detail
                live = wire_live[:, :, d_out, w]
            elif kind is ResourceKind.PIP_STRAIGHT:
                d_in, w = detail
                live = wire_live[:, :, DIR_OPPOSITE[d_in], w]
            elif kind is ResourceKind.PIP_TURN:
                d_in, p, w = detail
                live = wire_live[:, :, DIR_PERP[d_in][p], w]
            else:
                continue
            clb_live[:, :, intra] = live
        mask = np.zeros(self.bits.bits.size, dtype=bool)
        mask[self._clb_matrix] = clb_live
        return mask

    def patch_for_bit(self, linear_bit: int) -> Patch | None:
        """Hardware difference caused by flipping one configuration bit.

        Returns ``None`` when the flip provably does not alter the
        decoded hardware the outputs depend on (:attr:`live_bits` is
        False: inert or unused fabric, INIT bits under the no-reset
        injection protocol, wires nobody reads) or when the re-decoded
        hardware comes out equal.  The golden bitstream is restored
        before returning.

        A live bit is located in the decode tables (:attr:`_tables`,
        built on the first call) and decoded against them: a wire whose
        upstream chain the flip leaves untouched costs one lookup, and a
        changed wire reaches its readers through the golden consumer
        rows.
        """
        live = self.live_bits
        if not 0 <= linear_bit < live.size:
            self.bits.locate(linear_bit)  # raises: outside the bitstream
        if not live[linear_bit]:
            return None
        t = self._tables
        rc, intra = divmod(t.live_loc[bisect_left(t.live_lin, linear_bit)], CLB_BITS_PER_CLB)
        row, col = divmod(rc, self._cols)
        kind, detail = _INTRA_CLASS[intra]
        self.bits.bits[linear_bit] ^= 1
        try:
            return self._patch_clb_bit(row, col, kind, detail)
        finally:
            self.bits.bits[linear_bit] ^= 1

    def _patch_clb_bit(
        self, row: int, col: int, kind: ResourceKind, detail: tuple
    ) -> Patch | None:
        patch = Patch()
        flip = _Flip()
        spare_cursor = [0]

        if kind is ResourceKind.LUT_CONTENT:
            lut, entry = detail
            lrow = self.lut_row(row, col, lut)
            table = self.design.lut_tables[lrow].copy()
            table[entry] ^= 1
            patch.lut_tables.append((lrow, table))

        elif kind is ResourceKind.LUT_INPUT_MUX:
            lut, pin, _ = detail
            self._pin_patch(
                row, col, lut, pin,
                self._t_pin(row, col, lut, pin, flip),
                flip, patch, spare_cursor,
            )

        elif kind is ResourceKind.FF_CONFIG:
            ff, role = detail
            frow = self.ff_row(row, col, ff)
            cbit = lambda r: int(self._bit(row, col, ff_config_offset(ff, r)))
            if role == FF_BYPASS:
                new_d = (
                    self._materialize(
                        self._t_pin(row, col, ff, 0, flip), flip, patch, spare_cursor,
                    )
                    if cbit(FF_BYPASS)
                    else self.lut_node(row, col, ff)
                )
                if new_d != int(self.design.ff_d[frow]):
                    patch.ff_fields.append((frow, FFField.D, new_d))
            elif role == FF_CE_INV:
                base = self.ctrl_node[(row, col, ff // 2, CTRL_CE)]
                if cbit(FF_CE_INV):
                    # Now inverted: keepers hold 1 -> enable becomes 0.
                    if base == NODE_CONST1:
                        new_ce = NODE_CONST0
                    elif base == NODE_CONST0:
                        new_ce = NODE_CONST1
                    elif spare_cursor[0] >= len(self.spare_rows):
                        new_ce = NODE_CONST0
                    else:
                        k = spare_cursor[0]
                        spare_cursor[0] += 1
                        patch.lut_tables.append((self.spare_rows[k], _INV_TABLE.copy()))
                        patch.lut_inputs.append((self.spare_rows[k], 0, base))
                        new_ce = self.spare_nodes[k]
                else:
                    new_ce = base
                if new_ce != int(self.design.ff_ce[frow]):
                    patch.ff_fields.append((frow, FFField.CE, new_ce))
            elif role == FF_SR_EN:
                sr = (
                    self.ctrl_node[(row, col, ff // 2, CTRL_SR)]
                    if cbit(FF_SR_EN)
                    else NODE_CONST0
                )
                if sr != int(self.design.ff_sr[frow]):
                    patch.ff_fields.append((frow, FFField.SR, sr))
            elif role == FF_LATCH_MODE:
                clocked = 0 if cbit(FF_LATCH_MODE) else (
                    1 if self._slice_clocked(row, col, ff // 2) else 0
                )
                if clocked != int(self.design.ff_clocked[frow]):
                    patch.ff_fields.append((frow, FFField.CLOCKED, clocked))

        elif kind is ResourceKind.CTRL_MUX:
            slc, which, _ = detail
            if which == CTRL_CLK:
                clocked = 1 if self._slice_clocked(row, col, slc) else 0
                for pos in (2 * slc, 2 * slc + 1):
                    frow = self.ff_row(row, col, pos)
                    latch = int(self._bit(row, col, ff_config_offset(pos, FF_LATCH_MODE)))
                    eff = 0 if latch else clocked
                    if eff != int(self.design.ff_clocked[frow]):
                        patch.ff_fields.append((frow, FFField.CLOCKED, eff))
            else:
                self._ctrl_patch(
                    row, col, slc, which,
                    self._t_ctrl(row, col, slc, which, flip),
                    flip, patch, spare_cursor,
                )

        elif kind is ResourceKind.OUTPUT_MUX:
            port, _ = detail
            pkey = (row, col, port)
            pid = self._pid(row, col, port)
            flip.dirty_port = pid
            sel = self._field(row, col, output_mux_offset(port, 0))
            if sel:
                nodes = sorted({self._resolve_local(row, col, s) for s in sel})
                new_val = nodes[0] if len(nodes) == 1 else flip.ticket(nodes)
            else:
                new_val = self.halflatch_node.get(("portfloat", pkey), NODE_CONST1)
            new_node = self._materialize(new_val, flip, patch, spare_cursor)
            if pkey in self.port_value and new_node != self.port_value[pkey]:
                flip.port, flip.port_node = pid, new_node
                seeds: dict[int, int] = {}
                for wkey in self.port_wires.get(pkey, ()):  # re-resolve driven wires
                    wid = self._wid(*wkey)
                    nv = self._t_wire(wid, flip, set())
                    nv = self._materialize(nv, flip, patch, spare_cursor)
                    if nv != self.wire_value[wkey]:
                        seeds[wid] = nv
                self._propagate_wire_change(seeds, flip, patch, spare_cursor)
            # A port nobody drives onto a wire has no consumers: no patch.

        elif kind in (
            ResourceKind.PIP_DRIVE,
            ResourceKind.PIP_STRAIGHT,
            ResourceKind.PIP_TURN,
        ):
            if kind is ResourceKind.PIP_DRIVE:
                d, w = detail
            elif kind is ResourceKind.PIP_STRAIGHT:
                d_in, w = detail
                d = DIR_OPPOSITE[d_in]
            else:
                d_in, p, w = detail
                d = DIR_PERP[d_in][p]
            wid = self._wid(row, col, d, w)
            t = self._tables
            gi = t.wire_gi[wid]
            if gi >= 0 and t.pre[gi] >= 0:
                # The flip changes this wire's drivers: every tree wire
                # below it is dirty.
                flip.lo, flip.hi = t.pre[gi], t.post[gi]
            nv = self._t_wire(wid, flip, set())
            nv = self._materialize(nv, flip, patch, spare_cursor)
            if nv != self.wire_value.get((row, col, d, w)):
                self._propagate_wire_change({wid: nv}, flip, patch, spare_cursor)

        else:  # pragma: no cover - exhaustive over CLB kinds
            raise DecodeError(f"unhandled CLB resource kind {kind}")

        return patch if not patch.is_empty() else None


def decode_bitstream(
    device: VirtexDevice,
    bits: ConfigBitstream,
    io: IOBinding,
    n_spare: int = 32,
) -> DecodedDesign:
    """Decode a configuration into an executable hardware model."""
    return DecodedDesign(device, bits, io, n_spare)
