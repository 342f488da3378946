"""Output cones and the design-sized sub-designs batches run on.

A machine's outputs read only the *backward closure* of the output
nodes over its fan-in edges: the golden LUT operands and FF D/CE/SR
sources (:attr:`~repro.netlist.compiled.CompiledDesign.fanin`), plus
every edge its patch adds and every node its patch binds an output to.
Nothing outside that closure can reach an output, so a batch simulates
exactly as on the full design when it runs on the closure alone.

:func:`output_cone` is the golden closure, computed once per design;
:func:`closure` grows it by one batch's patch edges; :func:`restrict`
renumbers a batch onto the closure as a sub-:class:`CompiledDesign`,
which is what every fault model's observation simulates — a batch
costs what the design's observable logic costs, not what the device
costs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.netlist.compiled import NODE_CONST0, NODE_CONST1, CompiledDesign, FFField, Patch
from repro.netlist.simulator import (
    _SETTLE_CAP_MSG,
    SETTLE_CAP,
    BatchSimulator,
    _check_patch,
    max_schedule_violations,
)

__all__ = ["SubDesign", "closure", "output_cone", "restrict"]

_NODE_FIELDS = (FFField.D, FFField.CE, FFField.SR)


def _grow(
    design: CompiledDesign,
    mask: np.ndarray,
    seeds: np.ndarray,
    edge_dst: np.ndarray,
    edge_src: np.ndarray,
) -> None:
    """Close ``mask`` (bool per node, grown in place) over its edges.

    ``mask`` must already be closed under the golden fan-in.  It grows
    by ``seeds`` and by the source of every extra ``edge_dst <- edge_src``
    edge whose target is (or joins) the mask, one frontier step at a
    time: each step adds the new nodes' golden and extra sources.
    """
    ptr, src = design.fanin
    slot = np.empty(design.n_nodes, dtype=np.intp)  # scratch for de-duplication
    frontier = np.concatenate([seeds, edge_src[mask[edge_dst]]])
    while True:
        frontier = frontier[~mask[frontier]]
        if not frontier.size:
            return
        # One copy per node: the position its (single) slot write kept.
        at = np.arange(frontier.size)
        slot[frontier] = at
        frontier = frontier[slot[frontier] == at]
        mask[frontier] = True
        start = ptr[frontier]
        count = ptr[frontier + 1] - start
        end = np.cumsum(count)
        # Flat indices of every frontier node's CSR run.
        runs = np.repeat(start - end + count, count) + np.arange(end[-1])
        if edge_dst.size:
            frontier = np.concatenate([src[runs], edge_src[np.isin(edge_dst, frontier)]])
        else:
            frontier = src[runs]


def output_cone(design: CompiledDesign) -> np.ndarray:
    """Bool per node: the golden backward closure of the outputs (cached)."""
    cached = getattr(design, "_output_cone", None)
    if cached is None:
        cached = np.zeros(design.n_nodes, dtype=bool)
        none = np.zeros(0, dtype=np.intp)
        _grow(design, cached, design.output_nodes.astype(np.intp), none, none)
        cached.setflags(write=False)
        object.__setattr__(design, "_output_cone", cached)
    return cached


def closure(design: CompiledDesign, patches: list[Patch]) -> np.ndarray:
    """Bool per node: the output cone closed over ``patches``' edges.

    A sound superset of what any machine of the batch can read: the
    golden cone plus, for LUT operands and FF D/CE/SR sources a patch
    retargets inside the closure, the new source's whole fan-in cone,
    plus every node a patch binds an output to.
    """
    dst: list[int] = []
    src: list[int] = []
    seeds: list[int] = []
    lut_nodes, ff_nodes = design.lut_nodes, design.ff_nodes
    for p in patches:
        for row, _pin, node in p.lut_inputs:
            dst.append(lut_nodes[row])
            src.append(node)
        for row, fieldname, value in p.ff_fields:
            if fieldname in _NODE_FIELDS:
                dst.append(ff_nodes[row])
                src.append(value)
        seeds.extend(node for _, node in p.outputs)
    mask = output_cone(design).copy()
    _grow(
        design,
        mask,
        np.array(seeds, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.array(src, dtype=np.intp),
    )
    return mask


@dataclass
class SubDesign:
    """One batch renumbered onto its closure (see :func:`restrict`).

    ``nodes`` / ``lut_rows`` map each sub-design node / LUT row to its
    full-design index, which is how callers gather full-design arrays
    (a golden snapshot, address-suffix columns) into sub-design order.
    """

    design: CompiledDesign
    patches: list[Patch]
    nodes: np.ndarray
    lut_rows: np.ndarray
    #: settle count auto-detected on the *full* design's patches
    settle_passes: int
    #: uncapped schedule-violation count behind ``settle_passes``
    schedule_violations: int

    def simulator(
        self, initial_values: np.ndarray | None = None, companion: bool = False
    ) -> BatchSimulator:
        """The batch's simulator on the sub-design.

        ``initial_values`` is a full-design ``(n_nodes,)`` snapshot; only
        the kept nodes are gathered.
        """
        sim = BatchSimulator(
            self.design,
            self.patches,
            settle_passes=self.settle_passes,
            initial_values=None if initial_values is None else initial_values[self.nodes],
            companion=companion,
        )
        sim.schedule_violations_uncapped = self.schedule_violations
        return sim


def restrict(design: CompiledDesign, patches: list[Patch]) -> SubDesign:
    """Renumber ``design`` and a batch of ``patches`` onto their closure.

    Every patch is range-checked against the full design first (the
    simulator's :class:`~repro.errors.NetlistError` and messages): a
    bad index would otherwise be dropped, or wrap through the remap
    tables, unnoticed.  Entries on LUT rows, FF rows or constant nodes
    outside the closure are dropped — nothing observable reads them.

    The settle count is the full design's auto-detected one, so a
    schedule violation outside the closure still sets it: it is the
    batch's settle key, and it warns past :data:`SETTLE_CAP` as the
    simulator's own detection does.  The kept nodes are the closure,
    the constants and every input (the stimulus stays full-width), in
    full-design order; node names are not carried over.
    """
    for p in patches:
        _check_patch(design, p)
    raw = max_schedule_violations(design, patches)
    if raw > SETTLE_CAP:
        warnings.warn(_SETTLE_CAP_MSG, RuntimeWarning, stacklevel=2)

    keep = closure(design, patches)
    keep[[NODE_CONST0, NODE_CONST1]] = True
    keep[design.input_nodes] = True
    nodes = np.flatnonzero(keep)
    node_map = np.full(design.n_nodes, -1, dtype=np.intp)
    node_map[nodes] = np.arange(nodes.size)
    lut_keep = keep[design.lut_nodes]
    lut_rows = np.flatnonzero(lut_keep)
    row_map = np.cumsum(lut_keep) - 1
    ff_keep = keep[design.ff_nodes]
    ff_rows = np.flatnonzero(ff_keep)
    ff_map = np.cumsum(ff_keep) - 1
    levels = [row_map[lv[lut_keep[lv]]] for lv in design.levels]

    sub = CompiledDesign(
        name=design.name,
        n_nodes=int(nodes.size),
        node_kind=design.node_kind[nodes],
        const_values=design.const_values[nodes],
        input_nodes=node_map[design.input_nodes].astype(np.int32),
        output_nodes=node_map[design.output_nodes].astype(np.int32),
        lut_nodes=node_map[design.lut_nodes[lut_rows]].astype(np.int32),
        lut_inputs=node_map[design.lut_inputs[lut_rows]].astype(np.int32),
        lut_tables=design.lut_tables[lut_rows],
        levels=[lv for lv in levels if lv.size],
        ff_nodes=node_map[design.ff_nodes[ff_rows]].astype(np.int32),
        ff_d=node_map[design.ff_d[ff_rows]].astype(np.int32),
        ff_ce=node_map[design.ff_ce[ff_rows]].astype(np.int32),
        ff_sr=node_map[design.ff_sr[ff_rows]].astype(np.int32),
        ff_init=design.ff_init[ff_rows],
        ff_clocked=design.ff_clocked[ff_rows],
    )
    remapped = [
        Patch(
            [(int(row_map[r]), t) for r, t in p.lut_tables if lut_keep[r]],
            [(int(row_map[r]), pin, int(node_map[n])) for r, pin, n in p.lut_inputs if lut_keep[r]],
            [
                (int(ff_map[r]), f, int(node_map[v]) if f in _NODE_FIELDS else v)
                for r, f, v in p.ff_fields
                if ff_keep[r]
            ],
            [(int(node_map[n]), v) for n, v in p.consts if keep[n]],
            [(pos, int(node_map[n])) for pos, n in p.outputs],
        )
        for p in patches
    ]
    return SubDesign(
        sub, remapped, nodes, lut_rows, 1 + min(SETTLE_CAP, raw), raw
    )
