"""Router: realise nets on the single-wire fabric.

Signals travel on single-length wires of a fixed index ``w``: the source
CLB drives wire ``(d, w)`` from an output port (port ``w % 4``), transit
CLBs forward it with straight/turn PIPs (index-preserving), and the sink
selects the arriving wire in its input mux — whose candidate list fixes
the admissible ``(direction, index)`` pairs.  Routing one (net, sink)
pair is therefore a breadth-first search over ``(CLB, incoming-side)``
states at a fixed wire index, seeded with every segment the net already
owns (so fanout reuses its trunk).

Primary inputs are delivered by *long-line taps*: the chosen incoming
wire at the sink's CLB is marked as driven by the input directly,
modelling the IOB + long-line distribution network that sits outside our
bit-level fabric model (deviation recorded in DESIGN.md).  Design
outputs are probed from their cells (virtual probes).

Slice control inputs (CE/SR) route exactly like LUT pins but with the
per-slice control candidate lists; designs that leave CE unconnected get
the half-latch the paper warns about.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.fpga.resources import (
    CTRL_CE,
    CTRL_SR,
    DIR_DELTA,
    DIR_OPPOSITE,
    DIR_PERP,
    Direction,
    LocalSource,
    WireSource,
    ctrl_candidates,
    imux_candidates,
)
from repro.netlist.cells import CellKind
from repro.place.placer import Placement, Site

__all__ = ["RoutedDesign", "route_design"]

#: (row, col, direction value, wire index) — identifies an outgoing wire.
WireKey = tuple[int, int, int, int]

#: Incoming side -> the BFS hops out of a CLB entered from that side, in
#: search order (straight, turn 0, turn 1): ``(outgoing direction, d_row,
#: d_col, side the neighbour sees the wire arrive on, PIP kind, turn
#: index)``.  Plain ints, so the search never builds a ``Direction``.
_HOPS = tuple(
    ((DIR_OPPOSITE[side], *DIR_DELTA[DIR_OPPOSITE[side]], side, "straight", -1),)
    + tuple(
        (out, *DIR_DELTA[out], DIR_OPPOSITE[out], "turn", p)
        for p, out in enumerate(DIR_PERP[side])
    )
    for side in range(4)
)


def _incoming_key(dev, r: int, c: int, side: int, w: int) -> WireKey | None:
    """The neighbour's outgoing wire that CLB (r, c) sees arriving from
    ``side`` (:meth:`VirtexDevice.incoming_wire` in int form), or
    ``None`` at the die edge."""
    dr, dc = DIR_DELTA[side]
    nr, nc = r + dr, c + dc
    if 0 <= nr < dev.rows and 0 <= nc < dev.cols:
        return (nr, nc, DIR_OPPOSITE[side], w)
    return None


@dataclass
class RoutedDesign:
    """Complete physical realisation of a placed netlist."""

    placement: Placement
    #: (row, col, lut_pos, pin) -> selected candidate index (0..7)
    imux_select: dict[tuple[int, int, int, int], int] = field(default_factory=dict)
    #: (row, col, slice, which) -> selected candidate index
    ctrl_select: dict[tuple[int, int, int, int], int] = field(default_factory=dict)
    #: (row, col, port) -> internal signal index (0..7)
    port_select: dict[tuple[int, int, int], int] = field(default_factory=dict)
    drive_pips: set[WireKey] = field(default_factory=set)
    #: (row, col, incoming side, w): forward straight across the CLB
    straight_pips: set[WireKey] = field(default_factory=set)
    #: (row, col, incoming side, perp index, w)
    turn_pips: set[tuple[int, int, int, int, int]] = field(default_factory=set)
    #: outgoing wire -> net name (the driving cell)
    wire_net: dict[WireKey, str] = field(default_factory=dict)
    #: input cell name -> incoming-wire coordinates (row, col, side, w)
    input_taps: dict[str, list[tuple[int, int, int, int]]] = field(default_factory=dict)
    #: incoming-wire coordinate -> input cell name (reverse map; these
    #: wires are driven by the long-line network, not by fabric PIPs)
    tap_of_wire: dict[tuple[int, int, int, int], str] = field(default_factory=dict)
    #: long-line escapes for congested internal nets: incoming-wire
    #: coordinate -> driving net (cell name).  These model the hex/long
    #: lines of the real part, whose PIPs sit outside our bit-level
    #: fabric model; the router uses them only when single-line BFS
    #: fails, and their count is a routing-quality metric.
    net_taps: dict[tuple[int, int, int, int], str] = field(default_factory=dict)
    #: long-line escape sources: incoming-wire coordinate -> the driving
    #: CLB signal ``(row, col, signal_index)`` (resolves route-through
    #: buffers too, which have no netlist cell)
    net_tap_sources: dict[tuple[int, int, int, int], tuple[int, int, int]] = field(
        default_factory=dict
    )
    #: route-through buffers: (row, col, pos) -> (net, buffer input pin).
    #: A free LUT configured as a buffer so a congested sink can read
    #: the net through its local imux candidates.
    route_throughs: dict[tuple[int, int, int], tuple[str, int]] = field(
        default_factory=dict
    )

    @property
    def n_pips_on(self) -> int:
        return len(self.drive_pips) + len(self.straight_pips) + len(self.turn_pips)

    @property
    def n_escapes(self) -> int:
        return len(self.net_taps)

    @property
    def n_route_throughs(self) -> int:
        return len(self.route_throughs)


class _RouterState:
    """Mutable router bookkeeping during one :func:`route_design` run."""

    def __init__(self, placement: Placement):
        self.placement = placement
        self.device = placement.device
        self.routed = RoutedDesign(placement)
        #: net name -> set of (row, col, incoming side, w) states it covers
        self.net_states: dict[str, set[tuple[int, int, int, int]]] = {}
        #: taps claimed: incoming coords -> net
        self.claimed_taps: dict[tuple[int, int, int, int], str] = {}
        #: route-through buffers allocated: (row, col, pos) -> (net, pin)
        self.route_throughs: dict[tuple[int, int, int], tuple[str, int]] = {}
        #: positions holding placed cells (route-throughs must avoid them)
        self.occupied_positions: set[Site] = set(placement.used_positions)

    # -- wire ownership -----------------------------------------------------

    def incoming_coords_free(self, coords: tuple[int, int, int, int], net: str) -> bool:
        """Can ``net`` use the incoming wire at ``coords``?

        The incoming wire at (r, c) from side d is the neighbour's
        outgoing wire; at the die edge it is a pad wire that only a
        long-line tap can drive.
        """
        owner_tap = self.claimed_taps.get(coords)
        if owner_tap is not None:
            return owner_tap == net
        key = _incoming_key(self.device, *coords)
        if key is None:
            return True  # edge pad wire, free for a tap
        owner = self.routed.wire_net.get(key)
        return owner is None or owner == net


def _pin_sinks(placement: Placement):
    """Yield every sink to route: (site, kind, pin/which, source cell name).

    kind is 'lut' (LUT input pin) or 'ctrl' (slice CE/SR).
    """
    nl = placement.netlist
    for cell in nl.cells():
        if cell.kind is CellKind.LUT:
            site = placement.lut_site[cell.name]
            for pin, src in enumerate(cell.pins):
                yield site, "lut", pin, src
        elif cell.kind is CellKind.FF:
            site = placement.ff_site[cell.name]
            if cell.name not in placement.merged_ffs:
                # Bypass mode: D arrives via the paired LUT's pin 0.
                yield site, "lut", 0, cell.pins[0]
            if len(cell.pins) >= 2:
                yield site, "ctrl", CTRL_CE, cell.pins[1]
            if len(cell.pins) >= 3:
                yield site, "ctrl", CTRL_SR, cell.pins[2]


def _candidates_for(site: Site, kind: str, pin: int):
    if kind == "lut":
        return imux_candidates(site.pos, pin)
    return ctrl_candidates(site.slice_index, pin)


def _select(state: _RouterState, site: Site, kind: str, pin: int, cand_idx: int) -> None:
    if kind == "lut":
        key = (site.row, site.col, site.pos, pin)
        state.routed.imux_select[key] = cand_idx
    else:
        key = (site.row, site.col, site.slice_index, pin)
        state.routed.ctrl_select[key] = cand_idx


def _route_via_wires(
    state: _RouterState,
    net: str,
    src_site: Site,
    src_signal: int,
    sink_clb: tuple[int, int],
    d_in: Direction,
    w: int,
) -> bool:
    """BFS a path delivering ``net`` into ``sink_clb`` from side ``d_in``
    on wire index ``w``; commits PIPs/ports on success."""
    dev = state.device
    rows, cols = dev.rows, dev.cols
    routed = state.routed
    wire_net = routed.wire_net
    port = w % 4
    port_key = (src_site.row, src_site.col, port)
    existing_port = routed.port_select.get(port_key)
    can_drive = existing_port is None or existing_port == src_signal

    goal = (sink_clb[0], sink_clb[1], int(d_in), w)
    # Seed with states the net already covers at this wire index.
    seeds = {
        s for s in state.net_states.get(net, ()) if s[3] == w
    }
    parents: dict[tuple[int, int, int, int], tuple | None] = {}
    queue: deque[tuple[int, int, int, int]] = deque()
    for s in seeds:
        parents[s] = None
        queue.append(s)

    if can_drive:
        # Drive from the source CLB in each direction.
        sr, sc = src_site.row, src_site.col
        for d, (dr, dc) in enumerate(DIR_DELTA):
            nr, nc = sr + dr, sc + dc
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            key = (sr, sc, d, w)
            owner = wire_net.get(key)
            if owner is not None and owner != net:
                continue
            stt = (nr, nc, DIR_OPPOSITE[d], w)
            if stt not in parents:
                parents[stt] = ("drive", key)
                queue.append(stt)

    found = goal in parents
    while queue and not found:
        cur = queue.popleft()
        if cur == goal:
            found = True
            break
        r, c, side, _ = cur
        # Forward straight or turn onto the next CLB at the same index.
        for out_dir, dr, dc, n_side, kind_, p in _HOPS[side]:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols):
                continue
            owner = wire_net.get((r, c, out_dir, w))
            if owner is not None and owner != net:
                continue
            stt = (nr, nc, n_side, w)
            if stt not in parents:
                pip = (r, c, side, w) if p < 0 else (r, c, side, p, w)
                parents[stt] = (kind_, pip, cur)
                queue.append(stt)
        if goal in parents:
            found = True

    if goal not in parents:
        return False

    # Commit the path by walking parents back to a seed / drive edge.
    states_added = []
    cur = goal
    while True:
        edge = parents[cur]
        states_added.append(cur)
        if edge is None:
            break  # reused existing net state
        if edge[0] == "drive":
            key = edge[1]
            routed.drive_pips.add(key)
            wire_net[key] = net
            routed.port_select[port_key] = src_signal
            break
        kind_, pip_key, prev = edge
        # The outgoing wire of the hop is at the *previous* CLB.
        wire_net[(prev[0], prev[1], DIR_OPPOSITE[cur[2]], w)] = net
        if kind_ == "straight":
            routed.straight_pips.add(pip_key)
        else:
            routed.turn_pips.add(pip_key)
        cur = prev
    state.net_states.setdefault(net, set()).update(states_added)
    return True


def _free_buffer_positions(state: _RouterState, site: Site, cands) -> list[tuple[int | None, Site]]:
    """Candidate buffer positions for a route-through serving ``site``.

    Sink-CLB positions reachable through the pin's local candidates come
    first (zero extra wires), tagged with the candidate index that reads
    them; neighbouring CLBs' free positions follow (tagged None — the
    buffered signal still travels one wire hop to the sink).
    """
    out: list[tuple[int | None, Site]] = []
    for ci, cand in enumerate(cands):
        if isinstance(cand, LocalSource) and cand.index < 4:
            out.append((ci, Site(site.row, site.col, cand.index)))
    dev = state.device
    for dr, dc in DIR_DELTA:
        r, c = site.row + dr, site.col + dc
        if not (0 <= r < dev.rows and 0 <= c < dev.cols):
            continue
        for q in range(4):
            out.append((None, Site(r, c, q)))
    return out


def _route_sink(
    state: _RouterState,
    site: Site,
    kind: str,
    pin: int,
    net_name: str,
    src_site: Site,
    src_signal: int,
    allow_route_through: bool = True,
) -> bool:
    """Realise one (net, sink-pin) connection; commits state on success.

    Resolution ladder: local candidate -> wire BFS -> route-through (a
    free LUT configured as a buffer, fed recursively) -> long-line
    escape.
    """
    placement = state.placement
    cands = _candidates_for(site, kind, pin)

    # 1. Local candidate: same CLB and matching internal index.
    if (src_site.row, src_site.col) == (site.row, site.col):
        for ci, cand in enumerate(cands):
            if isinstance(cand, LocalSource) and cand.index == src_signal:
                _select(state, site, kind, pin, ci)
                return True

    # 2. Wire candidates, preferring the index class whose output
    # port the source already owns (then free ports), so each signal
    # usually consumes a single port.
    wire_cands = []
    for ci, cand in enumerate(cands):
        if not isinstance(cand, WireSource):
            continue
        port_key = (src_site.row, src_site.col, cand.index % 4)
        owner = state.routed.port_select.get(port_key)
        if owner == src_signal:
            pref = 0
        elif owner is None:
            pref = 1
        else:
            pref = 2  # needs a reused trunk; try last
        wire_cands.append((pref, ci, cand))
    wire_cands.sort(key=lambda t: (t[0], t[1]))

    for _, ci, cand in wire_cands:
        coords = (site.row, site.col, int(cand.direction), cand.index)
        if not state.incoming_coords_free(coords, net_name):
            continue
        if coords in state.claimed_taps and state.claimed_taps[coords] != net_name:
            continue
        if _route_via_wires(
            state,
            net_name,
            src_site,
            src_signal,
            (site.row, site.col),
            cand.direction,
            cand.index,
        ):
            _select(state, site, kind, pin, ci)
            return True

    # 3. Route-through: a free LUT — in the sink CLB (read through a
    # local candidate) or a neighbouring CLB (one wire hop) — is
    # configured as a buffer and fed recursively.
    if allow_route_through:
        for local_ci, buf in _free_buffer_positions(state, site, cands):
            pos_key = (buf.row, buf.col, buf.pos)
            existing = state.route_throughs.get(pos_key)
            if existing is not None:
                if existing[0] != net_name:
                    continue
                fed = True  # reuse this net's buffer
            elif buf in state.occupied_positions:
                continue
            else:
                fed = False
            rt_name = f"{net_name}__rt{buf.row}_{buf.col}_{buf.pos}"
            if not fed:
                fed = any(
                    _route_sink(
                        state, buf, "lut", bp, net_name, src_site, src_signal,
                        allow_route_through=False,
                    )
                    for bp in range(4)
                )
                if not fed:
                    continue
            # Record which pin fed the buffer (for the buffer table).
            for bp in range(4):
                if (buf.row, buf.col, buf.pos, bp) in state.routed.imux_select:
                    state.route_throughs[pos_key] = (net_name, bp)
                    state.routed.route_throughs[pos_key] = (net_name, bp)
                    break
            state.occupied_positions.add(buf)
            if local_ci is not None:
                _select(state, site, kind, pin, local_ci)
                return True
            # Deliver the buffered signal to the sink over a wire.
            if _route_sink(
                state, site, kind, pin, rt_name, buf, buf.pos,
                allow_route_through=False,
            ):
                return True
            # Buffer stays allocated but unused for this sink; other
            # sinks of the net may still reuse it.

    # 4. Long-line escape: deliver the net straight onto a candidate
    # incoming wire (models the hex/long lines our single-wire fabric
    # omits).
    for _, ci, cand in wire_cands:
        coords = (site.row, site.col, int(cand.direction), cand.index)
        if not state.incoming_coords_free(coords, net_name):
            continue
        key = _incoming_key(state.device, *coords)
        if key is not None:
            state.routed.wire_net.setdefault(key, net_name)
        state.claimed_taps[coords] = net_name
        state.routed.net_taps[coords] = net_name
        state.routed.net_tap_sources[coords] = (
            src_site.row,
            src_site.col,
            src_signal,
        )
        _select(state, site, kind, pin, ci)
        return True
    return False


def route_design(placement: Placement) -> RoutedDesign:
    """Route every net of a placement; raises :class:`RoutingError`.

    Deterministic: sinks are processed in netlist insertion order and
    candidates in list order.
    """
    state = _RouterState(placement)
    nl = placement.netlist
    ctrl_net: dict[tuple[int, int, int, int], str] = {}

    for site, kind, pin, src_name in _pin_sinks(placement):
        src = nl.cell(src_name)
        cands = _candidates_for(site, kind, pin)

        if kind == "ctrl":
            # Both FFs of a slice share one CE/SR mux: the second FF of
            # a slice reuses the first routing; two *different* nets on
            # one mux is unroutable.
            ckey = (site.row, site.col, site.slice_index, pin)
            prev = ctrl_net.get(ckey)
            if prev == src_name:
                continue
            if prev is not None:
                raise RoutingError(
                    f"slice control mux {ckey} demanded by nets "
                    f"{prev!r} and {src_name!r}"
                )
            ctrl_net[ckey] = src_name

        if src.kind is CellKind.INPUT:
            # Long-line tap: claim a candidate incoming wire for the input.
            done = False
            for ci, cand in enumerate(cands):
                if not isinstance(cand, WireSource):
                    continue
                coords = (site.row, site.col, int(cand.direction), cand.index)
                if state.incoming_coords_free(coords, src_name):
                    key = _incoming_key(state.device, *coords)
                    if key is not None:
                        state.routed.wire_net.setdefault(key, src_name)
                    state.claimed_taps[coords] = src_name
                    state.routed.tap_of_wire[coords] = src_name
                    state.routed.input_taps.setdefault(src_name, []).append(coords)
                    _select(state, site, kind, pin, ci)
                    done = True
                    break
            if not done:
                raise RoutingError(
                    f"no free tap wire for input {src_name!r} at {site}"
                )
            continue

        src_site = placement.site_of(src_name)
        src_signal = placement.signal_index(src_name)
        if not _route_sink(state, site, kind, pin, src_name, src_site, src_signal):
            raise RoutingError(
                f"cannot route net {src_name!r} ({src_site}) to "
                f"{kind} pin {pin} of {site}"
            )
    return state.routed
