"""Per-bit reference for :attr:`DecodedDesign.live_bits` (test-only).

Before the golden live-bit mask, ``DecodedDesign.patch_for_bit`` settled
inert bits one at a time: locate the bit, classify it, reject inert
resource kinds, check output-cone membership of the LUT/FF rows the bit
touches, and bail out of FF ``INIT``/reserved bits and PIPs onto wires
no golden reader uses.  Those screens live on here, written against the
decoder's public golden state, so the mask can be checked bit for bit
against the path it replaced (``tests/place/test_live_bits.py``,
``tests/property/test_property_decoder.py``).
"""

from __future__ import annotations

import numpy as np

from repro.fpga.resources import FF_INIT, FF_RESERVED, Direction, ResourceKind
from repro.place.decoder import DecodedDesign

#: Kinds the per-bit path returned ``None`` for without looking further.
INERT_KINDS = (
    ResourceKind.COLUMN_OVERHEAD,
    ResourceKind.CLOCK_CONFIG,
    ResourceKind.IOB_CONFIG,
    ResourceKind.BRAM_CONTENT,
    ResourceKind.BRAM_INTERCONNECT,
    ResourceKind.CARRY,
    ResourceKind.RESERVED,
    ResourceKind.PIP_RESERVED,
)

#: Kinds ``DecodedDesign._patch_clb_bit`` computes a patch for.
PATCHED_KINDS = tuple(k for k in ResourceKind if k not in INERT_KINDS)


def _bit_may_matter(
    dec: DecodedDesign, kind: ResourceKind, row: int, col: int, detail: tuple
) -> bool:
    """Can this bit's resource reach the outputs? (the old cone screen)"""
    d = dec.design
    cone = dec._cone
    if kind is ResourceKind.LUT_CONTENT:
        lut, _ = detail
        return bool(cone[d.lut_nodes[dec.lut_row(row, col, lut)]])
    if kind is ResourceKind.LUT_INPUT_MUX:
        lut, pin, _ = detail
        if cone[d.lut_nodes[dec.lut_row(row, col, lut)]]:
            return True
        return pin == 0 and bool(cone[d.ff_nodes[dec.ff_row(row, col, lut)]])
    if kind is ResourceKind.FF_CONFIG:
        ff, _ = detail
        return bool(cone[d.ff_nodes[dec.ff_row(row, col, ff)]])
    if kind is ResourceKind.CTRL_MUX:
        slc, _, _ = detail
        return bool(
            cone[d.ff_nodes[dec.ff_row(row, col, 2 * slc)]]
            or cone[d.ff_nodes[dec.ff_row(row, col, 2 * slc + 1)]]
        )
    if kind is ResourceKind.OUTPUT_MUX:
        port, _ = detail
        return (row, col, port) in dec.port_value
    return True  # PIPs handle their own consumer check


def _pip_target(row: int, col: int, kind: ResourceKind, detail: tuple) -> tuple:
    """The outgoing wire a PIP bit drives."""
    if kind is ResourceKind.PIP_DRIVE:
        d, w = detail
        return (row, col, d, w)
    if kind is ResourceKind.PIP_STRAIGHT:
        d_in, w = detail
        return (row, col, int(Direction(d_in).opposite), w)
    d_in, p, w = detail
    return (row, col, int(Direction(d_in).perpendicular[p]), w)


def reference_live(dec: DecodedDesign, linear_bit: int) -> bool:
    """Would the per-bit path have gone on to compute a patch?"""
    frame, off = dec.bits.locate(linear_bit)
    loc = dec.device.classify_bit(frame, off)
    kind = loc.kind
    if kind in INERT_KINDS:
        return False
    if not _bit_may_matter(dec, kind, loc.row, loc.col, loc.detail):
        return False
    if kind is ResourceKind.FF_CONFIG:
        return loc.detail[1] not in (FF_INIT, FF_RESERVED)
    if kind in (ResourceKind.PIP_DRIVE, ResourceKind.PIP_STRAIGHT, ResourceKind.PIP_TURN):
        wkey = _pip_target(loc.row, loc.col, kind, loc.detail)
        return wkey in dec.wire_value or wkey in dec.wire_consumers
    return True


def reference_live_bits(dec: DecodedDesign) -> np.ndarray:
    """:func:`reference_live` over every linear bit of the bitstream."""
    return np.array(
        [reference_live(dec, b) for b in range(dec.bits.bits.size)], dtype=bool
    )
