"""Intra-CLB configuration-bit map and routing-fabric descriptors.

Each CLB owns ``864`` configuration bits (48 frames x 18 bits, see
:mod:`repro.fpga.geometry`).  This module fixes what every one of those
bits *means* — the contract shared by the configuration generator
(:mod:`repro.place.configgen`), the decoder (:mod:`repro.place.decoder`)
and the SEU campaign's structural pre-filter.

CLB contents (Virtex slice model)
---------------------------------
Two slices per CLB, each with two 4-input LUTs and two flip-flops, giving
per CLB: LUTs 0..3 (slice = lut // 2) and FFs 0..3 (FF *k* is paired with
LUT *k*).

Intra-CLB bit layout (offsets within [0, 864))
----------------------------------------------
========================  =========  ====================================
field                      offsets    meaning
========================  =========  ====================================
LUT content                0..63      16 truth-table bits per LUT
LUT input muxes            64..191    4 pins x 4 LUTs x 8-bit one-hot
FF config                  192..215   6 bits per FF (INIT, BYPASS, ...)
slice control muxes        216..263   CE / SR / CLK, 8-bit one-hot each
output-port muxes          264..295   4 ports x 8-bit one-hot
routing PIPs               296..679   drive / straight / turn PIPs
PIP reserved               680..695   unused PIP sites
carry config               696..711   carry-chain mode bits
reserved                   712..863   manufacturing/test bits (unused)
========================  =========  ====================================

Mux fields are **one-hot**: exactly one set bit selects the candidate
with that index.  A zero-hot (floating) field selects no source, and the
input is held at logic 1 by a *half-latch* — the weak keeper circuit of
paper Figure 13.  A multi-hot field turns on several pass transistors;
we model the resulting contention as the AND of the selected sources
(drivers fighting a keeper pull toward the weakest low).

Routing fabric
--------------
Each CLB drives 24 single-length wires in each of the four directions
(96 wires, as the paper states).  Wire ``(d, w)`` leaving a CLB is seen
by the neighbour in direction ``d`` as "incoming from ``opposite(d)``".
Three PIP families configure the fabric:

* **drive** PIPs put output port ``w % 4`` onto outgoing wire ``(d, w)``
  (ports cover 20 of the 24 wires per direction in the real part; we
  expose all 24 but BIST only exercises the 20 mux-reachable ones);
* **straight** PIPs forward an incoming wire to the opposite side at the
  same index (signal keeps travelling in a straight line);
* **turn** PIPs forward an incoming wire to one of the two perpendicular
  sides at the same index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import GeometryError
from repro.fpga.geometry import CLB_BITS_PER_CLB

__all__ = [
    "DIR_DELTA",
    "DIR_OPPOSITE",
    "DIR_PERP",
    "Direction",
    "ResourceKind",
    "BitLocation",
    "Source",
    "LocalSource",
    "WireSource",
    "UnconnectedSource",
    "N_LUTS_PER_CLB",
    "N_FFS_PER_CLB",
    "N_SLICES_PER_CLB",
    "LUT_BITS",
    "LUT_PINS",
    "MUX_FIELD_BITS",
    "WIRES_PER_DIRECTION",
    "MUX_REACHABLE_WIRES",
    "N_OUTPUT_PORTS",
    "FF_INIT",
    "FF_BYPASS",
    "FF_CE_INV",
    "FF_SR_EN",
    "FF_LATCH_MODE",
    "FF_RESERVED",
    "CTRL_CE",
    "CTRL_SR",
    "CTRL_CLK",
    "lut_content_offset",
    "imux_offset",
    "ff_config_offset",
    "ctrl_mux_offset",
    "output_mux_offset",
    "pip_drive_offset",
    "pip_straight_offset",
    "pip_turn_offset",
    "carry_offset",
    "classify_intra",
    "imux_candidates",
    "ctrl_candidates",
    "port_of_wire",
]

# -- structural constants ------------------------------------------------

N_LUTS_PER_CLB = 4
N_FFS_PER_CLB = 4
N_SLICES_PER_CLB = 2
LUT_BITS = 16
LUT_PINS = 4
MUX_FIELD_BITS = 8
WIRES_PER_DIRECTION = 24
#: Wires per direction reachable from the output multiplexer (paper: 20).
MUX_REACHABLE_WIRES = 20
N_OUTPUT_PORTS = 4

# FF config bit roles (within the 6-bit per-FF field).
FF_INIT = 0  #: state loaded at configuration / reset
FF_BYPASS = 1  #: 1 = D comes straight from pin-0 mux, skipping the LUT
FF_CE_INV = 2  #: 1 = clock-enable sense inverted
FF_SR_EN = 3  #: 1 = slice SR signal resets this FF
FF_LATCH_MODE = 4  #: 1 = transparent-latch mode (modelled as failure)
FF_RESERVED = 5

# Control mux roles (per slice).
CTRL_CE = 0
CTRL_SR = 1
CTRL_CLK = 2

# -- intra-CLB field offsets ----------------------------------------------

_LUT_CONTENT_BASE = 0
_IMUX_BASE = 64
_FF_CONFIG_BASE = 192
_FF_CONFIG_BITS = 6
_CTRL_BASE = 216
_OUTPUT_MUX_BASE = 264
_PIP_DRIVE_BASE = 296
_PIP_STRAIGHT_BASE = 392
_PIP_TURN_BASE = 488
_PIP_RESERVED_BASE = 680
_CARRY_BASE = 696
_CARRY_BITS_PER_SLICE = 8
_RESERVED_BASE = 712


# Direction tables indexed by the int value of a :class:`Direction`.  Hot
# loops (the router's BFS, the decoder's wire resolution) index these with
# plain ints instead of constructing enum members; the enum's properties
# read them too, so the geometry is written down once.

#: (d_row, d_col) of one step toward direction ``d`` (row 0 at top).
DIR_DELTA: tuple[tuple[int, int], ...] = ((-1, 0), (0, 1), (1, 0), (0, -1))
#: The direction facing ``d``.
DIR_OPPOSITE: tuple[int, ...] = (2, 3, 0, 1)
#: The two directions perpendicular to ``d``; the turn-PIP ``perp`` index
#: selects one of them.
DIR_PERP: tuple[tuple[int, int], ...] = ((1, 3), (2, 0), (3, 1), (0, 2))


class Direction(enum.IntEnum):
    """Compass direction of a routing wire, as an array index."""

    N = 0
    E = 1
    S = 2
    W = 3

    @property
    def delta(self) -> tuple[int, int]:
        """(d_row, d_col) of one step in this direction (row 0 at top)."""
        return DIR_DELTA[self]

    @property
    def opposite(self) -> "Direction":
        return Direction(DIR_OPPOSITE[self])

    @property
    def perpendicular(self) -> tuple["Direction", "Direction"]:
        a, b = DIR_PERP[self]
        return Direction(a), Direction(b)


class ResourceKind(enum.Enum):
    """What a configuration bit controls."""

    LUT_CONTENT = "lut_content"
    LUT_INPUT_MUX = "lut_input_mux"
    FF_CONFIG = "ff_config"
    CTRL_MUX = "ctrl_mux"
    OUTPUT_MUX = "output_mux"
    PIP_DRIVE = "pip_drive"
    PIP_STRAIGHT = "pip_straight"
    PIP_TURN = "pip_turn"
    PIP_RESERVED = "pip_reserved"
    CARRY = "carry"
    RESERVED = "reserved"
    COLUMN_OVERHEAD = "column_overhead"
    CLOCK_CONFIG = "clock_config"
    IOB_CONFIG = "iob_config"
    BRAM_CONTENT = "bram_content"
    BRAM_INTERCONNECT = "bram_interconnect"


@dataclass(frozen=True)
class BitLocation:
    """Fully decoded identity of one configuration bit.

    ``row``/``col`` are CLB coordinates for CLB-block bits and ``-1``
    otherwise.  ``detail`` is a kind-specific tuple, e.g. for
    ``LUT_CONTENT`` it is ``(lut, table_entry)``; for ``LUT_INPUT_MUX``
    ``(lut, pin, field_bit)``; for PIPs the decoded (direction, wire)
    identity.
    """

    kind: ResourceKind
    row: int
    col: int
    detail: tuple[int, ...]


# -- source descriptors ----------------------------------------------------


@dataclass(frozen=True)
class LocalSource:
    """A signal inside the same CLB: LUT output (0..3) or FF output (4..7)."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < N_LUTS_PER_CLB + N_FFS_PER_CLB:
            raise GeometryError(f"local source index {self.index} out of range")

    @property
    def is_ff(self) -> bool:
        return self.index >= N_LUTS_PER_CLB

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"FF{self.index - 4}" if self.is_ff else f"LUT{self.index}"


@dataclass(frozen=True)
class WireSource:
    """An incoming single-length wire from the neighbour in ``direction``."""

    direction: Direction
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < WIRES_PER_DIRECTION:
            raise GeometryError(f"wire index {self.index} out of range")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"wire({self.direction.name}, {self.index})"


@dataclass(frozen=True)
class UnconnectedSource:
    """A floating input: held at logic 1 by a half-latch keeper."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "half-latch"


Source = LocalSource | WireSource | UnconnectedSource


# -- offset computations ----------------------------------------------------


def lut_content_offset(lut: int, entry: int) -> int:
    """Intra-CLB offset of truth-table bit ``entry`` of LUT ``lut``."""
    _check(lut, N_LUTS_PER_CLB, "lut"), _check(entry, LUT_BITS, "entry")
    return _LUT_CONTENT_BASE + lut * LUT_BITS + entry


def imux_offset(lut: int, pin: int, bit: int) -> int:
    """Intra-CLB offset of field bit ``bit`` of input mux (lut, pin)."""
    _check(lut, N_LUTS_PER_CLB, "lut")
    _check(pin, LUT_PINS, "pin")
    _check(bit, MUX_FIELD_BITS, "bit")
    return _IMUX_BASE + (lut * LUT_PINS + pin) * MUX_FIELD_BITS + bit


def ff_config_offset(ff: int, role: int) -> int:
    """Intra-CLB offset of config bit ``role`` (FF_INIT...) of FF ``ff``."""
    _check(ff, N_FFS_PER_CLB, "ff")
    _check(role, _FF_CONFIG_BITS, "role")
    return _FF_CONFIG_BASE + ff * _FF_CONFIG_BITS + role


def ctrl_mux_offset(slice_idx: int, which: int, bit: int) -> int:
    """Intra-CLB offset of a slice control mux bit (CE / SR / CLK)."""
    _check(slice_idx, N_SLICES_PER_CLB, "slice")
    _check(which, 3, "which")
    _check(bit, MUX_FIELD_BITS, "bit")
    return _CTRL_BASE + (slice_idx * 3 + which) * MUX_FIELD_BITS + bit


def output_mux_offset(port: int, bit: int) -> int:
    """Intra-CLB offset of output-port mux bit."""
    _check(port, N_OUTPUT_PORTS, "port")
    _check(bit, MUX_FIELD_BITS, "bit")
    return _OUTPUT_MUX_BASE + port * MUX_FIELD_BITS + bit


def pip_drive_offset(direction: int, wire: int) -> int:
    """PIP putting output port ``wire % 4`` onto outgoing wire (d, wire)."""
    _check(wire, WIRES_PER_DIRECTION, "wire")
    return _PIP_DRIVE_BASE + int(direction) * WIRES_PER_DIRECTION + wire


def pip_straight_offset(in_from: int, wire: int) -> int:
    """PIP forwarding incoming (in_from, wire) straight across the CLB."""
    _check(wire, WIRES_PER_DIRECTION, "wire")
    return _PIP_STRAIGHT_BASE + int(in_from) * WIRES_PER_DIRECTION + wire


def pip_turn_offset(in_from: int, perp: int, wire: int) -> int:
    """PIP turning incoming (in_from, wire) onto perpendicular side.

    ``perp`` is 0 or 1, indexing ``DIR_PERP[in_from]``.
    """
    _check(perp, 2, "perp")
    _check(wire, WIRES_PER_DIRECTION, "wire")
    return _PIP_TURN_BASE + (int(in_from) * 2 + perp) * WIRES_PER_DIRECTION + wire


def carry_offset(slice_idx: int, bit: int) -> int:
    """Intra-CLB offset of a carry-chain mode bit."""
    _check(slice_idx, N_SLICES_PER_CLB, "slice")
    _check(bit, _CARRY_BITS_PER_SLICE, "bit")
    return _CARRY_BASE + slice_idx * _CARRY_BITS_PER_SLICE + bit


def _check(value: int, bound: int, name: str) -> None:
    if not 0 <= value < bound:
        raise GeometryError(f"{name} {value} out of range [0, {bound})")


def classify_intra(intra: int) -> tuple[ResourceKind, tuple[int, ...]]:
    """Decode an intra-CLB offset into (kind, detail).

    Inverse of the ``*_offset`` functions above; detail tuples match their
    argument order.
    """
    if not 0 <= intra < CLB_BITS_PER_CLB:
        raise GeometryError(f"intra offset {intra} out of range")
    if intra < _IMUX_BASE:
        lut, entry = divmod(intra - _LUT_CONTENT_BASE, LUT_BITS)
        return ResourceKind.LUT_CONTENT, (lut, entry)
    if intra < _FF_CONFIG_BASE:
        field, bit = divmod(intra - _IMUX_BASE, MUX_FIELD_BITS)
        lut, pin = divmod(field, LUT_PINS)
        return ResourceKind.LUT_INPUT_MUX, (lut, pin, bit)
    if intra < _CTRL_BASE:
        ff, role = divmod(intra - _FF_CONFIG_BASE, _FF_CONFIG_BITS)
        return ResourceKind.FF_CONFIG, (ff, role)
    if intra < _OUTPUT_MUX_BASE:
        field, bit = divmod(intra - _CTRL_BASE, MUX_FIELD_BITS)
        slice_idx, which = divmod(field, 3)
        return ResourceKind.CTRL_MUX, (slice_idx, which, bit)
    if intra < _PIP_DRIVE_BASE:
        port, bit = divmod(intra - _OUTPUT_MUX_BASE, MUX_FIELD_BITS)
        return ResourceKind.OUTPUT_MUX, (port, bit)
    if intra < _PIP_STRAIGHT_BASE:
        d, wire = divmod(intra - _PIP_DRIVE_BASE, WIRES_PER_DIRECTION)
        return ResourceKind.PIP_DRIVE, (d, wire)
    if intra < _PIP_TURN_BASE:
        d, wire = divmod(intra - _PIP_STRAIGHT_BASE, WIRES_PER_DIRECTION)
        return ResourceKind.PIP_STRAIGHT, (d, wire)
    if intra < _PIP_RESERVED_BASE:
        field, wire = divmod(intra - _PIP_TURN_BASE, WIRES_PER_DIRECTION)
        d, perp = divmod(field, 2)
        return ResourceKind.PIP_TURN, (d, perp, wire)
    if intra < _CARRY_BASE:
        return ResourceKind.PIP_RESERVED, (intra - _PIP_RESERVED_BASE,)
    if intra < _RESERVED_BASE:
        slice_idx, bit = divmod(intra - _CARRY_BASE, _CARRY_BITS_PER_SLICE)
        return ResourceKind.CARRY, (slice_idx, bit)
    return ResourceKind.RESERVED, (intra - _RESERVED_BASE,)


# -- routing candidate patterns --------------------------------------------


def imux_candidates(lut: int, pin: int) -> tuple[Source, ...]:
    """The 8 selectable sources of input mux (lut, pin).

    The pattern is identical in every CLB (like real fabric): two local
    feedback taps plus six incoming wires whose indices are spread by a
    per-pin stride so that the 16 pins of a CLB can be fed from 16
    distinct wires in each direction.
    """
    _check(lut, N_LUTS_PER_CLB, "lut")
    _check(pin, LUT_PINS, "pin")
    base = lut * LUT_PINS + pin  # 0..15, unique per pin within the CLB
    # Four local feedback taps reach the LUT and FF outputs of positions
    # (lut + pin - 1) and (lut + pin + 1) mod 4: every internal signal is
    # locally reachable from exactly two pins, so packers can satisfy
    # shift chains, counter feedback and carry chains without wires.
    # The four wire candidates cover one direction each and span all four
    # index classes mod 4 (wire class k is driven by output port k).
    lo = (lut + pin - 1) % N_LUTS_PER_CLB
    hi = (lut + pin + 1) % N_LUTS_PER_CLB
    return (
        LocalSource(lo),
        LocalSource(N_LUTS_PER_CLB + lo),
        LocalSource(hi),
        LocalSource(N_LUTS_PER_CLB + hi),
        WireSource(Direction.N, base % WIRES_PER_DIRECTION),
        WireSource(Direction.E, (base + 7) % WIRES_PER_DIRECTION),
        WireSource(Direction.S, (base + 13) % WIRES_PER_DIRECTION),
        WireSource(Direction.W, (base + 18) % WIRES_PER_DIRECTION),
    )


def ctrl_candidates(slice_idx: int, which: int) -> tuple[Source, ...]:
    """The 8 selectable sources of a slice control mux (CE / SR / CLK).

    Candidate 0 of the CLK mux is the global clock spine (modelled
    implicitly by the simulator); for CE and SR candidate 0 is a local FF
    output, letting designs gate themselves.
    """
    _check(slice_idx, N_SLICES_PER_CLB, "slice")
    _check(which, 3, "which")
    base = 16 + slice_idx * 3 + which  # wire indices 16..21: clear of pin wires
    return (
        LocalSource(N_LUTS_PER_CLB + slice_idx * 2),
        LocalSource(slice_idx * 2 + 1),
        WireSource(Direction.N, base % WIRES_PER_DIRECTION),
        WireSource(Direction.E, (base + 7) % WIRES_PER_DIRECTION),
        WireSource(Direction.S, (base + 13) % WIRES_PER_DIRECTION),
        WireSource(Direction.W, (base + 18) % WIRES_PER_DIRECTION),
        WireSource(Direction.E, (base + 5) % WIRES_PER_DIRECTION),
        WireSource(Direction.W, (base + 2) % WIRES_PER_DIRECTION),
    )


def port_of_wire(wire: int) -> int:
    """Which output port can drive outgoing wire index ``wire``."""
    _check(wire, WIRES_PER_DIRECTION, "wire")
    return wire % N_OUTPUT_PORTS
