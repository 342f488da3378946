"""Single-length wire test via repeated partial reconfiguration (Fig. 5).

The paper's procedure: configure column 0 as the stimulus source and
every other CLB as an inverter, all flip-flops initialised to zero and
chained on one chosen wire per CLB; step the clock and read back to
check stuck-at-one; step and read back again for stuck-at-zero; then
*partially reconfigure* to move the chain onto the next wire index.
Each configuration thus costs one partial reconfiguration and two
readbacks; a direction's mux-reachable wires are covered by one design
reconfigured repeatedly.

Our stimulus column uses toggling flip-flops, so the two clock steps
naturally drive both polarities down the chain.  The configuration is
assembled *directly* as placement + routing structures (no router): the
test pins the exact wire index under test, which is the whole point.

Fabric note: our input muxes reach 16 of the 24 wire indices per
direction (the real part's output mux reaches 20); coverage accounting
reflects that (64/96 wires vs the paper's 80/96) — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bist.faults import StuckAtFault, FaultSite, fault_patch
from repro.errors import BISTError
from repro.fpga.device import VirtexDevice
from repro.fpga.resources import Direction, WIRES_PER_DIRECTION, imux_candidates, WireSource
from repro.netlist.cells import lut_table
from repro.netlist.netlist import Netlist
from repro.netlist.simulator import BatchSimulator
from repro.place.configgen import generate_bitstream
from repro.place.decoder import decode_bitstream
from repro.place.placer import Placement, Site
from repro.place.router import RoutedDesign

__all__ = ["WireTestPlan", "WireTestResult", "testable_indices", "run_wire_test", "build_wire_chain"]

#: Candidate-list slot of the wire entry for each incoming side.
_SIDE_SLOT = {Direction.N: 4, Direction.E: 5, Direction.S: 6, Direction.W: 7}
#: Wire-index offset of each side's candidate (see imux_candidates).
_SIDE_OFFSET = {Direction.N: 0, Direction.E: 7, Direction.S: 13, Direction.W: 18}


def testable_indices(side: Direction) -> dict[int, tuple[int, int]]:
    """Wire indices testable by chains reading from ``side``.

    Returns ``{wire_index: (lut_pos, pin)}`` — the imux whose candidate
    list contains that (side, index) wire.
    """
    out: dict[int, tuple[int, int]] = {}
    for base in range(16):
        w = (base + _SIDE_OFFSET[side]) % WIRES_PER_DIRECTION
        out[w] = (base // 4, base % 4)
    return out


def build_wire_chain(device: VirtexDevice, travel: Direction, w: int):
    """Assemble the chain configuration for wire index ``w``.

    The signal travels toward ``travel``; each CLB reads the incoming
    wire from ``travel.opposite`` and re-drives it inverted.  Returns
    ``(bitstream, io, expected_fn)`` where ``expected_fn(cycle)`` gives
    the fault-free flip-flop pattern per chain position.
    """
    side = travel.opposite
    table = testable_indices(side)
    if w not in table:
        raise BISTError(
            f"wire index {w} not reachable from side {side.name} "
            f"(testable: {sorted(table)})"
        )
    pos, pin = table[w]
    cand = imux_candidates(pos, pin)[_SIDE_SLOT[side]]
    assert isinstance(cand, WireSource) and cand.index == w and cand.direction is side

    horizontal = travel in (Direction.E, Direction.W)
    n_lines = device.rows if horizontal else device.cols
    n_steps = device.cols if horizontal else device.rows

    nl = Netlist(f"wiretest_{travel.name}{w}")
    placement = Placement(device, nl)
    routed = RoutedDesign(placement)

    inv_table = lut_table(lambda *args: 1 - args[0], 1)
    # Inverter of the specific pin: out = NOT(pin value), other pins don't care.
    pin_inv_table = 0
    for addr in range(16):
        if not (addr >> pin) & 1:
            pin_inv_table |= 1 << addr
    # Driver: toggling FF (inverter of its own FF output at pin 1).
    drv_table = 0
    for addr in range(16):
        if not (addr >> 1) & 1:
            drv_table |= 1 << addr

    def clb_at(line: int, step: int) -> tuple[int, int]:
        if travel is Direction.E:
            return line, step
        if travel is Direction.W:
            return line, device.cols - 1 - step
        if travel is Direction.S:
            return step, line
        return device.rows - 1 - step, line

    probes: list[tuple[int, int, int]] = []
    for line in range(n_lines):
        r0, c0 = clb_at(line, 0)
        drv_pos = 0 if pos != 0 else 1  # keep the driver off the chain position
        lut_name = nl.add_lut(f"drv{line}", drv_table, [])
        ff_name = nl.add_ff(f"drvff{line}", lut_name, init=0)
        placement.lut_site[lut_name] = Site(r0, c0, drv_pos)
        placement.ff_site[ff_name] = Site(r0, c0, drv_pos)
        placement.merged_ffs.add(ff_name)
        # Driver LUT pin 1 reads the local FF at the same position.
        routed.imux_select[(r0, c0, drv_pos, 1)] = 1
        # Export the driver FF onto the chain wire.
        routed.port_select[(r0, c0, w % 4)] = 4 + drv_pos
        routed.drive_pips.add((r0, c0, int(travel), w))

        for step in range(1, n_steps):
            r, c = clb_at(line, step)
            lname = nl.add_lut(f"inv{line}_{step}", pin_inv_table, [])
            fname = nl.add_ff(f"invff{line}_{step}", lname, init=0)
            placement.lut_site[lname] = Site(r, c, pos)
            placement.ff_site[fname] = Site(r, c, pos)
            placement.merged_ffs.add(fname)
            routed.imux_select[(r, c, pos, pin)] = _SIDE_SLOT[side]
            if step < n_steps - 1:
                routed.port_select[(r, c, w % 4)] = pos  # LUT out onward
                routed.drive_pips.add((r, c, int(travel), w))
            probes.append((r, c, 4 + pos))
    nl.set_outputs([f"invff{line}_{step}" for line in range(n_lines) for step in range(1, n_steps)])

    bits, io = generate_bitstream(routed)
    # generate_bitstream derives probes from netlist outputs via
    # placement — order matches `probes` by construction.

    def expected(cycle: int, step: int) -> int:
        """Fault-free FF value at chain position ``step`` after ``cycle``
        clock edges (cycle counts from 1)."""
        drv = (cycle - 1) % 2  # driver FF output during that cycle
        return (drv + step) % 2

    return bits, io, expected


@dataclass
class WireTestPlan:
    """What a full wire-test sweep will do."""

    directions: tuple[Direction, ...] = (Direction.E, Direction.S, Direction.W, Direction.N)
    n_configs: int = 0
    n_readbacks: int = 0
    wires_per_clb_covered: int = 0

    @classmethod
    def full(cls) -> "WireTestPlan":
        dirs = (Direction.E, Direction.S, Direction.W, Direction.N)
        n_per_dir = len(testable_indices(Direction.W))
        return cls(
            directions=dirs,
            n_configs=n_per_dir * len(dirs),
            n_readbacks=2 * n_per_dir * len(dirs),
            wires_per_clb_covered=n_per_dir * len(dirs),
        )


@dataclass
class WireTestResult:
    """Outcome of a wire-test sweep against a set of injected faults."""

    plan: WireTestPlan
    n_configs_run: int = 0
    n_readbacks_run: int = 0
    detected: list[StuckAtFault] = field(default_factory=list)
    missed: list[StuckAtFault] = field(default_factory=list)
    #: fault -> (travel direction, wire index, first failing chain step)
    isolation: dict[str, tuple[str, int, int]] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.missed)
        return len(self.detected) / total if total else 1.0


def run_wire_test(
    device: VirtexDevice,
    faults: list[StuckAtFault],
    directions: tuple[Direction, ...] = (Direction.E, Direction.S, Direction.W, Direction.N),
    wire_indices: list[int] | None = None,
) -> WireTestResult:
    """Run the Figure 5 sweep against injected wire faults.

    Only wire faults on tested (direction, index) pairs are expected to
    be caught; the result separates detected and missed, and isolates
    each detection to the first failing chain position.
    """
    for f in faults:
        if f.site is not FaultSite.WIRE:
            raise BISTError("wire test only accepts WIRE faults")

    plan = WireTestPlan.full()
    result = WireTestResult(plan)
    caught: set[int] = set()

    for travel in directions:
        side = travel.opposite
        indices = sorted(testable_indices(side))
        if wire_indices is not None:
            indices = [w for w in indices if w in wire_indices]
        for w in indices:
            bits, io, expected = build_wire_chain(device, travel, w)
            decoded = decode_bitstream(device, bits, io, n_spare=8)
            patches = [fault_patch(decoded, f) for f in faults]
            sim = BatchSimulator(decoded.design, [p for p in patches])
            result.n_configs_run += 1
            # Three cycles so both post-edge captures (the two paper
            # readbacks) are visible at the FF probes.
            stim = np.zeros((3, 0), dtype=np.uint8)
            golden = BatchSimulator.golden_trace(decoded.design, stim)
            outs = sim.run(stim)
            result.n_readbacks_run += 2
            for m, fault in enumerate(faults):
                if m in caught:
                    continue
                mism = np.argwhere(outs[:, m, :] != golden.outputs[:, None, :][:, 0, :])
                if mism.size:
                    caught.add(m)
                    first_step = int(mism[0][1])
                    result.isolation[str(fault)] = (travel.name, w, first_step)
    for m, fault in enumerate(faults):
        (result.detected if m in caught else result.missed).append(fault)
    return result
