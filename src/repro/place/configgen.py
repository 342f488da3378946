"""Configuration generator: routed design -> configuration bits.

Writes every field the decoder reads: LUT truth tables (replicated
across unused pins, matching the CAD redundancy the paper relies on for
half-latch tolerance), input-mux one-hots, FF config, slice control
muxes (CLK enabled everywhere; CE/SR left floating unless routed — the
floating CE is where half-latches appear), output-port muxes and the
three PIP families.

The I/O map — which edge/long-line wires carry which primary input, and
which cells the output probes watch — is IOB configuration in the real
part; we carry it alongside the bitstream as :class:`IOBinding`
(deviation recorded in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bitstream.bitstream import ConfigBitstream
from repro.errors import PlacementError
from repro.fpga.resources import (
    CTRL_CLK,
    FF_BYPASS,
    FF_INIT,
    ctrl_mux_offset,
    ff_config_offset,
    imux_offset,
    lut_content_offset,
    output_mux_offset,
    pip_drive_offset,
    pip_straight_offset,
    pip_turn_offset,
)
from repro.netlist.cells import CellKind
from repro.place.router import RoutedDesign

__all__ = ["IOBinding", "generate_bitstream"]


@dataclass
class IOBinding:
    """I/O metadata accompanying a bitstream (stands in for IOB config).

    ``input_order`` fixes the stimulus column order; ``taps`` maps
    incoming-wire coordinates ``(row, col, side, w)`` to the input index
    driven onto that wire by the long-line network; ``output_probes``
    lists, per output bit, the probed CLB signal ``(row, col,
    signal_index)`` with signal 0-3 = LUT, 4-7 = FF.
    """

    input_order: list[str] = field(default_factory=list)
    taps: dict[tuple[int, int, int, int], int] = field(default_factory=dict)
    output_probes: list[tuple[int, int, int]] = field(default_factory=list)
    #: long-line escapes: incoming-wire coordinate -> driving internal
    #: signal ``(row, col, signal_index)`` (see the router's ``net_taps``)
    net_taps: dict[tuple[int, int, int, int], tuple[int, int, int]] = field(
        default_factory=dict
    )


def generate_bitstream(routed: RoutedDesign) -> tuple[ConfigBitstream, IOBinding]:
    """Encode a routed design as configuration bits + I/O binding."""
    placement = routed.placement
    device = placement.device
    nl = placement.netlist
    bits = ConfigBitstream(device.geometry)

    def set_clb_bit(row: int, col: int, intra: int, value: int = 1) -> None:
        frame, off = device.clb_bit_frame(row, col, intra)
        bits.frame_view(frame)[off] = value

    # -- LUT contents and FF configs ---------------------------------------
    for cell in nl.cells():
        if cell.kind is CellKind.LUT:
            site = placement.lut_site[cell.name]
            for entry in range(16):
                set_clb_bit(
                    site.row,
                    site.col,
                    lut_content_offset(site.pos, entry),
                    (cell.table >> entry) & 1,
                )
        elif cell.kind is CellKind.CONST:
            site = placement.lut_site[cell.name]
            if cell.value:
                for entry in range(16):
                    set_clb_bit(site.row, site.col, lut_content_offset(site.pos, entry), 1)
            # constant 0: table stays all-zero
        elif cell.kind is CellKind.FF:
            site = placement.ff_site[cell.name]
            if cell.init:
                set_clb_bit(site.row, site.col, ff_config_offset(site.pos, FF_INIT), 1)
            if cell.name not in placement.merged_ffs:
                set_clb_bit(site.row, site.col, ff_config_offset(site.pos, FF_BYPASS), 1)

    # -- route-through buffers ------------------------------------------------
    for (row, col, pos), (_net, buf_pin) in routed.route_throughs.items():
        for entry in range(16):
            set_clb_bit(
                row,
                col,
                lut_content_offset(pos, entry),
                (entry >> buf_pin) & 1,
            )

    # -- mux selections --------------------------------------------------------
    for (row, col, pos, pin), ci in routed.imux_select.items():
        set_clb_bit(row, col, imux_offset(pos, pin, ci), 1)
    for (row, col, slc, which), ci in routed.ctrl_select.items():
        set_clb_bit(row, col, ctrl_mux_offset(slc, which, ci), 1)
    for (row, col, port), signal in routed.port_select.items():
        set_clb_bit(row, col, output_mux_offset(port, signal), 1)

    # -- clock: every slice clocked (default CAD behaviour) -----------------
    for row in range(device.rows):
        for col in range(device.cols):
            for slc in range(2):
                set_clb_bit(row, col, ctrl_mux_offset(slc, CTRL_CLK, 0), 1)

    # -- PIPs ---------------------------------------------------------------
    for row, col, d, w in routed.drive_pips:
        set_clb_bit(row, col, pip_drive_offset(d, w), 1)
    for row, col, d_in, w in routed.straight_pips:
        set_clb_bit(row, col, pip_straight_offset(d_in, w), 1)
    for row, col, d_in, perp, w in routed.turn_pips:
        set_clb_bit(row, col, pip_turn_offset(d_in, perp, w), 1)

    # -- I/O binding ----------------------------------------------------------
    io = IOBinding(input_order=list(nl.inputs))
    input_index = {name: i for i, name in enumerate(io.input_order)}
    for coords, input_name in routed.tap_of_wire.items():
        io.taps[coords] = input_index[input_name]
    for coords in routed.net_taps:
        io.net_taps[coords] = routed.net_tap_sources[coords]
    for out_name in nl.outputs:
        cell = nl.cell(out_name)
        if cell.kind is CellKind.INPUT:
            raise PlacementError(
                f"output {out_name!r} is a primary input passthrough; unsupported"
            )
        site = placement.site_of(out_name)
        io.output_probes.append((site.row, site.col, placement.signal_index(out_name)))
    return bits, io
