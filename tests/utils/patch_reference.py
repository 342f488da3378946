"""Recursive per-bit reference for :meth:`DecodedDesign.patch_for_bit` (test-only).

Before the decode tables, ``patch_for_bit`` located and classified each
bit, then re-resolved every wire it touched by walking the wire's whole
upstream chain through the current bits (``_transient_wire`` ->
``_wire_driver_specs`` -> ``_transient_incoming``), and pushed changed
wires through the golden consumer graph (``_propagate_wire_change``).
That path lives on here, written against the decoder's golden state, so
the table-driven decode can be checked patch for patch against it
(``tests/property/test_property_decoder.py``,
``benchmarks/bench_live_bit_decode.py``).

Multi-driver results are negative AND tickets ``-1 - k`` into
``overlay["_ands"]``; ``_materialize`` turns them into spare rows, one
per distinct input set (``overlay["_made"]`` maps tickets to nodes,
``overlay["_rows"]`` spare-row inputs to nodes).  The
ticket order, the ``CONST1`` cut on wire loops (it depends on the
resolution stack) and the keeper lookups are what the table path must
reproduce byte for byte.
"""

from __future__ import annotations

from repro.fpga.resources import (
    CTRL_CE,
    CTRL_CLK,
    CTRL_SR,
    DIR_OPPOSITE,
    DIR_PERP,
    FF_BYPASS,
    FF_CE_INV,
    FF_LATCH_MODE,
    FF_SR_EN,
    ResourceKind,
    ff_config_offset,
    output_mux_offset,
    pip_drive_offset,
    pip_straight_offset,
    pip_turn_offset,
)
from repro.netlist.compiled import NODE_CONST0, NODE_CONST1, FFField, Patch
from repro.place.decoder import _CTRL, _IMUX, _INV_TABLE, DecodedDesign

#: Outgoing direction ``d`` -> intra offset of the drive PIP of wire (d, 0).
_DRIVE_PIP = tuple(pip_drive_offset(d, 0) for d in range(4))
#: Outgoing direction ``d`` -> ((incoming side, intra offset at wire 0), ...)
#: of the straight and turn PIPs that forward onto wire (d, w).
_FORWARD_PIPS = tuple(
    ((DIR_OPPOSITE[d], pip_straight_offset(DIR_OPPOSITE[d], 0)),)
    + tuple(
        (a, pip_turn_offset(a, p, 0))
        for a in range(4)
        for p, perp in enumerate(DIR_PERP[a])
        if perp == d
    )
    for d in range(4)
)


class ReferencePatcher:
    """``patch_for_bit`` as the recursive re-resolution computed it."""

    def __init__(self, dec: DecodedDesign):
        self.dec = dec

    # -- transient (overlay) resolution --------------------------------------

    def _wire_driver_specs(self, key) -> list[tuple]:
        """Who can drive outgoing wire ``key``, per the *current* bits.

        Returns specs: ("port", r, c, p) or ("in", r, c, side, w).
        """
        r, c, d, w = key
        mat = self.dec._clb_matrix[r, c]
        bits = self.dec.bits.bits
        specs: list[tuple] = []
        if bits[mat[_DRIVE_PIP[d] + w]]:
            specs.append(("port", r, c, w % 4))
        for side, base in _FORWARD_PIPS[d]:
            if bits[mat[base + w]]:
                specs.append(("in", r, c, side, w))
        return specs

    def _transient_wire(self, key, overlay: dict, stack: set | None = None) -> int:
        dec = self.dec
        if key in overlay:
            return overlay[key]
        stack = stack if stack is not None else set()
        if key in stack:
            return NODE_CONST1
        stack.add(key)
        try:
            nodes: list[int] = []
            for spec in self._wire_driver_specs(key):
                if spec[0] == "port":
                    _, r, c, p = spec
                    nodes.append(self._transient_port(r, c, p, overlay))
                else:
                    _, r, c, side, w = spec
                    nodes.append(self._transient_incoming(r, c, side, w, overlay, stack))
            nodes = sorted(set(nodes))
            if not nodes:
                return dec.halflatch_node.get(("wire", key), NODE_CONST1)
            if len(nodes) == 1:
                return nodes[0]
            return -1 - self._overlay_and(nodes, overlay)
        finally:
            stack.discard(key)

    def _transient_port(self, r: int, c: int, p: int, overlay: dict) -> int:
        dec = self.dec
        key = ("port", r, c, p)
        if key in overlay:
            return overlay[key]
        if (r, c, p) in dec.port_value:
            return dec.port_value[(r, c, p)]
        sel = dec._field(r, c, output_mux_offset(p, 0))
        if not sel:
            return dec.halflatch_node.get(("portfloat", (r, c, p)), NODE_CONST1)
        nodes = sorted({dec._resolve_local(r, c, s) for s in sel})
        if len(nodes) == 1:
            return nodes[0]
        return -1 - self._overlay_and(nodes, overlay)

    @staticmethod
    def _overlay_and(nodes: list[int], overlay: dict) -> int:
        ands = overlay.setdefault("_ands", [])
        ands.append(nodes)
        return len(ands) - 1

    def _transient_incoming(
        self, row: int, col: int, side: int, w: int, overlay: dict, stack: set | None = None
    ) -> int:
        dec = self.dec
        coords = (row, col, side, w)
        tap = dec.io.taps.get(coords)
        if tap is not None:
            return dec.input_nodes[tap]
        net_tap = dec.io.net_taps.get(coords)
        if net_tap is not None:
            return dec._resolve_local(net_tap[0], net_tap[1], net_tap[2])
        key = dec._incoming_key(row, col, side, w)
        if key is None:
            return dec.halflatch_node.get(("pad", coords), NODE_CONST1)
        return self._transient_wire(key, overlay, stack)

    def _transient_mux(self, row, col, base, cands, keeper_key, overlay) -> int:
        dec = self.dec
        nodes: list[int] = []
        for ci in dec._field(row, col, base):
            side, index = cands[ci]
            if side is None:
                nodes.append(dec._resolve_local(row, col, index))
            else:
                nodes.append(self._transient_incoming(row, col, side, index, overlay))
        nodes = sorted(set(nodes))
        if not nodes:
            return dec.halflatch_node.get(keeper_key, NODE_CONST1)
        if len(nodes) == 1:
            return nodes[0]
        return -1 - self._overlay_and(nodes, overlay)

    def _transient_pin(self, row: int, col: int, pos: int, pin: int, overlay: dict) -> int:
        base, cands = _IMUX[pos][pin]
        return self._transient_mux(row, col, base, cands, ("imux", row, col, pos, pin), overlay)

    def _transient_ctrl(self, row: int, col: int, slc: int, which: int, overlay: dict) -> int:
        base, cands = _CTRL[slc][which]
        return self._transient_mux(row, col, base, cands, ("ctrl", row, col, slc, which), overlay)

    # -- patch assembly -------------------------------------------------------

    def _materialize(self, value: int, overlay: dict, patch: Patch, spare_cursor: list[int]) -> int:
        dec = self.dec
        if value >= 0:
            return value
        made = overlay.setdefault("_made", {})
        if value in made:
            return made[value]
        real = [
            self._materialize(s, overlay, patch, spare_cursor)
            for s in overlay["_ands"][-1 - value]
        ]
        rows = overlay.setdefault("_rows", {})
        inputs = tuple(real[:4])
        if inputs in rows:
            made[value] = rows[inputs]
        elif spare_cursor[0] >= len(dec.spare_rows):
            made[value] = real[0]
        else:
            srow = dec.spare_rows[spare_cursor[0]]
            spare_cursor[0] += 1
            for pin, src in enumerate(inputs):
                patch.lut_inputs.append((srow, pin, src))
            made[value] = rows[inputs] = dec.spare_nodes[dec.spare_rows.index(srow)]
        return made[value]

    def _pin_patch(self, row, col, pos, pin, new_value, overlay, patch, spare_cursor) -> None:
        dec = self.dec
        old = dec.pin_source.get((row, col, pos, pin))
        node = self._materialize(new_value, overlay, patch, spare_cursor)
        if old is not None and node == old:
            return
        lrow = dec.lut_row(row, col, pos)
        patch.lut_inputs.append((lrow, pin, node))
        if pin == 0:
            frow = dec.ff_row(row, col, pos)
            if int(dec.design.ff_d[frow]) == (old if old is not None else -2):
                if int(dec._bit(row, col, ff_config_offset(pos, FF_BYPASS))):
                    patch.ff_fields.append((frow, FFField.D, node))

    def _ctrl_patch(self, row, col, slc, which, new_value, overlay, patch, spare_cursor) -> None:
        dec = self.dec
        old = dec.ctrl_node.get((row, col, slc, which))
        node = self._materialize(new_value, overlay, patch, spare_cursor)
        if old is not None and node == old:
            return
        for pos in (2 * slc, 2 * slc + 1):
            frow = dec.ff_row(row, col, pos)
            if which == CTRL_CE:
                if int(dec._bit(row, col, ff_config_offset(pos, FF_CE_INV))):
                    continue
                patch.ff_fields.append((frow, FFField.CE, node))
            elif which == CTRL_SR:
                if int(dec._bit(row, col, ff_config_offset(pos, FF_SR_EN))):
                    patch.ff_fields.append((frow, FFField.SR, node))

    def _propagate_wire_change(
        self, seeds: dict, overlay: dict, patch: Patch, spare_cursor: list[int]
    ) -> None:
        dec = self.dec
        worklist = list(seeds.keys())
        for key, val in seeds.items():
            overlay[key] = val
        seen = set(worklist)
        while worklist:
            key = worklist.pop()
            for consumer in dec.wire_consumers.get(key, ()):
                if consumer[0] == "wire":
                    k2 = consumer[1]
                    if k2 in seen:
                        continue
                    new_val = self._transient_wire(k2, overlay)
                    if new_val != dec.wire_value.get(k2):
                        overlay[k2] = new_val
                        seen.add(k2)
                        worklist.append(k2)
                elif consumer[0] == "pin":
                    _, r, c, pos, pin = consumer
                    self._pin_patch(
                        r, c, pos, pin, self._transient_pin(r, c, pos, pin, overlay),
                        overlay, patch, spare_cursor,
                    )
                elif consumer[0] == "ctrl":
                    _, r, c, slc, which = consumer
                    self._ctrl_patch(
                        r, c, slc, which, self._transient_ctrl(r, c, slc, which, overlay),
                        overlay, patch, spare_cursor,
                    )

    # -- the per-bit entry point ------------------------------------------------

    def patch_for_bit(self, linear_bit: int) -> Patch | None:
        dec = self.dec
        live = dec.live_bits
        if 0 <= linear_bit < live.size and not live[linear_bit]:
            return None
        frame, off = dec.bits.locate(linear_bit)
        loc = dec.device.classify_bit(frame, off)
        dec.bits.bits[linear_bit] ^= 1
        try:
            return self._patch_clb_bit(loc.row, loc.col, loc.kind, loc.detail)
        finally:
            dec.bits.bits[linear_bit] ^= 1

    def _patch_clb_bit(self, row: int, col: int, kind: ResourceKind, detail: tuple) -> Patch | None:
        dec = self.dec
        patch = Patch()
        overlay: dict = {}
        spare_cursor = [0]

        if kind is ResourceKind.LUT_CONTENT:
            lut, entry = detail
            lrow = dec.lut_row(row, col, lut)
            table = dec.design.lut_tables[lrow].copy()
            table[entry] ^= 1
            patch.lut_tables.append((lrow, table))

        elif kind is ResourceKind.LUT_INPUT_MUX:
            lut, pin, _ = detail
            self._pin_patch(
                row, col, lut, pin, self._transient_pin(row, col, lut, pin, overlay),
                overlay, patch, spare_cursor,
            )

        elif kind is ResourceKind.FF_CONFIG:
            ff, role = detail
            frow = dec.ff_row(row, col, ff)

            def cbit(r):
                return int(dec._bit(row, col, ff_config_offset(ff, r)))

            if role == FF_BYPASS:
                new_d = (
                    self._materialize(
                        self._transient_pin(row, col, ff, 0, overlay),
                        overlay, patch, spare_cursor,
                    )
                    if cbit(FF_BYPASS)
                    else dec.lut_node(row, col, ff)
                )
                if new_d != int(dec.design.ff_d[frow]):
                    patch.ff_fields.append((frow, FFField.D, new_d))
            elif role == FF_CE_INV:
                base = dec.ctrl_node[(row, col, ff // 2, CTRL_CE)]
                if cbit(FF_CE_INV):
                    if base == NODE_CONST1:
                        new_ce = NODE_CONST0
                    elif base == NODE_CONST0:
                        new_ce = NODE_CONST1
                    else:
                        srow = (
                            dec.spare_rows[spare_cursor[0]]
                            if spare_cursor[0] < len(dec.spare_rows)
                            else None
                        )
                        if srow is None:
                            new_ce = NODE_CONST0
                        else:
                            spare_cursor[0] += 1
                            patch.lut_tables.append((srow, _INV_TABLE.copy()))
                            patch.lut_inputs.append((srow, 0, base))
                            new_ce = dec.spare_nodes[dec.spare_rows.index(srow)]
                else:
                    new_ce = base
                if new_ce != int(dec.design.ff_ce[frow]):
                    patch.ff_fields.append((frow, FFField.CE, new_ce))
            elif role == FF_SR_EN:
                sr = dec.ctrl_node[(row, col, ff // 2, CTRL_SR)] if cbit(FF_SR_EN) else NODE_CONST0
                if sr != int(dec.design.ff_sr[frow]):
                    patch.ff_fields.append((frow, FFField.SR, sr))
            elif role == FF_LATCH_MODE:
                clocked = 0 if cbit(FF_LATCH_MODE) else (
                    1 if dec._slice_clocked(row, col, ff // 2) else 0
                )
                if clocked != int(dec.design.ff_clocked[frow]):
                    patch.ff_fields.append((frow, FFField.CLOCKED, clocked))

        elif kind is ResourceKind.CTRL_MUX:
            slc, which, _ = detail
            if which == CTRL_CLK:
                clocked = 1 if dec._slice_clocked(row, col, slc) else 0
                for pos in (2 * slc, 2 * slc + 1):
                    frow = dec.ff_row(row, col, pos)
                    latch = int(dec._bit(row, col, ff_config_offset(pos, FF_LATCH_MODE)))
                    eff = 0 if latch else clocked
                    if eff != int(dec.design.ff_clocked[frow]):
                        patch.ff_fields.append((frow, FFField.CLOCKED, eff))
            else:
                self._ctrl_patch(
                    row, col, slc, which, self._transient_ctrl(row, col, slc, which, overlay),
                    overlay, patch, spare_cursor,
                )

        elif kind is ResourceKind.OUTPUT_MUX:
            port, _ = detail
            pkey = (row, col, port)
            sel = dec._field(row, col, output_mux_offset(port, 0))
            if sel:
                nodes = sorted({dec._resolve_local(row, col, s) for s in sel})
                new_val = nodes[0] if len(nodes) == 1 else -1 - self._overlay_and(nodes, overlay)
            else:
                new_val = dec.halflatch_node.get(("portfloat", pkey), NODE_CONST1)
            new_node = self._materialize(new_val, overlay, patch, spare_cursor)
            if pkey in dec.port_value and new_node != dec.port_value[pkey]:
                overlay[("port",) + pkey] = new_node
                seeds: dict = {}
                for wkey in dec.port_wires.get(pkey, ()):
                    nv = self._transient_wire(wkey, overlay)
                    nv = self._materialize(nv, overlay, patch, spare_cursor)
                    if nv != dec.wire_value.get(wkey):
                        seeds[wkey] = nv
                self._propagate_wire_change(seeds, overlay, patch, spare_cursor)

        elif kind in (ResourceKind.PIP_DRIVE, ResourceKind.PIP_STRAIGHT, ResourceKind.PIP_TURN):
            if kind is ResourceKind.PIP_DRIVE:
                d, w = detail
                wkey = (row, col, d, w)
            elif kind is ResourceKind.PIP_STRAIGHT:
                d_in, w = detail
                wkey = (row, col, DIR_OPPOSITE[d_in], w)
            else:
                d_in, p, w = detail
                wkey = (row, col, DIR_PERP[d_in][p], w)
            nv = self._transient_wire(wkey, overlay)
            nv = self._materialize(nv, overlay, patch, spare_cursor)
            if nv != dec.wire_value.get(wkey):
                self._propagate_wire_change({wkey: nv}, overlay, patch, spare_cursor)

        return patch if not patch.is_empty() else None
