"""Flat array form of a design, plus the fault-patch representation.

A :class:`CompiledDesign` is what the simulator executes: numpy arrays
indexed by *node* (a value-carrying signal) and by *LUT row* / *FF row*
(the elements that compute).  Nodes 0 and 1 are always the constants 0
and 1.

A :class:`Patch` is a sparse difference against a compiled design — the
output of the incremental bitstream decoder for one flipped
configuration bit.  Patches are what the batch simulator applies to give
each machine in a batch its own (slightly different) hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetlistError

__all__ = ["NodeKind", "CompiledDesign", "Patch", "FFField", "NODE_CONST0", "NODE_CONST1"]

#: Node index of the hard constant 0.
NODE_CONST0 = 0
#: Node index of the hard constant 1.
NODE_CONST1 = 1


class NodeKind(enum.IntEnum):
    """What drives a node's value."""

    CONST = 0
    INPUT = 1
    LUT = 2
    FF = 3
    HALF_LATCH = 4  #: constant-1 keeper; hidden state, not in the bitstream


class FFField(enum.IntEnum):
    """Patchable per-FF fields."""

    D = 0
    CE = 1
    SR = 2
    INIT = 3
    CLOCKED = 4


@dataclass
class Patch:
    """Sparse hardware difference of one faulty machine vs the golden one.

    Index spaces: ``lut_tables``/``lut_inputs`` use LUT *rows*;
    ``ff_fields`` uses FF rows; ``consts`` uses *node* indices (only
    CONST / HALF_LATCH nodes may appear); ``outputs`` patches the output
    binding.
    """

    #: (lut_row, new 16-entry uint8 table)
    lut_tables: list[tuple[int, np.ndarray]] = field(default_factory=list)
    #: (lut_row, pin, new source node)
    lut_inputs: list[tuple[int, int, int]] = field(default_factory=list)
    #: (ff_row, field, new value) — D/CE/SR take node indices, INIT/CLOCKED take 0/1
    ff_fields: list[tuple[int, FFField, int]] = field(default_factory=list)
    #: (node, new constant value)
    consts: list[tuple[int, int]] = field(default_factory=list)
    #: (output position, new source node)
    outputs: list[tuple[int, int]] = field(default_factory=list)

    def __reduce__(self):
        # Patches travel between processes with their survivors; tables
        # as bytes and FF fields as ints pickle a few times faster.
        return _unpickle_patch, (
            [(row, np.asarray(t, dtype=np.uint8).tobytes()) for row, t in self.lut_tables],
            self.lut_inputs, [(row, int(f), v) for row, f, v in self.ff_fields],
            self.consts, self.outputs,
        )

    def is_empty(self) -> bool:
        return not (
            self.lut_tables
            or self.lut_inputs
            or self.ff_fields
            or self.consts
            or self.outputs
        )

    def table_flips(self, lut_tables: np.ndarray) -> dict[int, int] | None:
        """The truth-table entries a tables-only patch flips.

        ``None`` when the patch touches anything but LUT truth tables
        (wiring, FF fields, constants, output bindings); otherwise, per
        LUT row it changes, the 16-bit mask of entries that differ from
        ``lut_tables`` (the golden ``(n_luts, 16)`` tables), ORed over
        every entry for that row.
        """
        if self.lut_inputs or self.ff_fields or self.consts or self.outputs:
            return None
        flips: dict[int, int] = {}
        for row, table in self.lut_tables:
            changed = np.flatnonzero(np.asarray(table, dtype=np.uint8) ^ lut_tables[row])
            if changed.size:
                row = int(row)
                flips[row] = flips.get(row, 0) | int(np.bitwise_or.reduce(1 << changed))
        return flips

    def merged_with(self, other: "Patch") -> "Patch":
        """Apply ``other`` on top of this patch (later entries win)."""
        return Patch(
            self.lut_tables + other.lut_tables,
            self.lut_inputs + other.lut_inputs,
            self.ff_fields + other.ff_fields,
            self.consts + other.consts,
            self.outputs + other.outputs,
        )

    def signature(self) -> tuple:
        """Canonical hashable form: two patches get equal signatures iff
        they configure identical hardware.

        Normalises exactly the way the simulator applies a patch — the
        last writer wins per target (a LUT row for tables, a (row, pin)
        for inputs, a (row, field) for FF fields, a node for constants,
        a position for outputs) — then sorts each target map, so entry
        order and shadowed writes cannot distinguish equivalent patches.
        Fault collapsing keys its equivalence classes on this.
        """
        tables: dict[int, bytes] = {}
        for row, table in self.lut_tables:
            tables[int(row)] = np.asarray(table, dtype=np.uint8).tobytes()
        inputs: dict[tuple[int, int], int] = {}
        for row, pin, node in self.lut_inputs:
            inputs[(int(row), int(pin))] = int(node)
        ffs: dict[tuple[int, int], int] = {}
        for row, fieldname, value in self.ff_fields:
            ffs[(int(row), int(fieldname))] = int(value)
        consts: dict[int, int] = {}
        for node, value in self.consts:
            consts[int(node)] = int(value)
        outputs: dict[int, int] = {}
        for pos, node in self.outputs:
            outputs[int(pos)] = int(node)
        return (
            tuple(sorted(tables.items())),
            tuple(sorted(inputs.items())),
            tuple(sorted(ffs.items())),
            tuple(sorted(consts.items())),
            tuple(sorted(outputs.items())),
        )


def _unpickle_patch(tables, lut_inputs, ff_fields, consts, outputs) -> Patch:
    return Patch(
        [(row, np.frombuffer(t, dtype=np.uint8).copy()) for row, t in tables],
        lut_inputs, [(row, _FF_FIELDS[f], v) for row, f, v in ff_fields], consts, outputs,
    )


_FF_FIELDS = tuple(FFField)


@dataclass
class CompiledDesign:
    """Executable array form of one design.

    Invariants (checked by :meth:`validate`):

    * ``values`` space has ``n_nodes`` entries, nodes 0/1 are constants;
    * every LUT row appears in exactly one level;
    * all index arrays point inside the node space.
    """

    name: str
    n_nodes: int
    node_kind: np.ndarray  # (n_nodes,) uint8 of NodeKind
    const_values: np.ndarray  # (n_nodes,) uint8; meaningful for CONST/HALF_LATCH
    input_nodes: np.ndarray  # (n_inputs,) int32
    output_nodes: np.ndarray  # (n_outputs,) int32
    lut_nodes: np.ndarray  # (n_luts,) int32 — node written by each LUT row
    lut_inputs: np.ndarray  # (n_luts, 4) int32
    lut_tables: np.ndarray  # (n_luts, 16) uint8
    levels: list[np.ndarray]  # evaluation order over LUT rows
    ff_nodes: np.ndarray  # (n_ffs,) int32
    ff_d: np.ndarray  # (n_ffs,) int32
    ff_ce: np.ndarray  # (n_ffs,) int32 (NODE_CONST1 when always enabled)
    ff_sr: np.ndarray  # (n_ffs,) int32 (NODE_CONST0 when never reset)
    ff_init: np.ndarray  # (n_ffs,) uint8
    ff_clocked: np.ndarray  # (n_ffs,) uint8 — 0 models a broken clock mux
    node_names: dict[str, int] = field(default_factory=dict)

    @property
    def n_luts(self) -> int:
        return int(self.lut_nodes.size)

    @property
    def n_ffs(self) -> int:
        return int(self.ff_nodes.size)

    @property
    def n_inputs(self) -> int:
        return int(self.input_nodes.size)

    @property
    def n_outputs(self) -> int:
        return int(self.output_nodes.size)

    @property
    def half_latch_nodes(self) -> np.ndarray:
        """Node indices of half-latch keepers (the hidden state)."""
        return np.flatnonzero(self.node_kind == int(NodeKind.HALF_LATCH)).astype(np.int32)

    def node_of(self, name: str) -> int:
        try:
            return self.node_names[name]
        except KeyError:
            raise NetlistError(f"no node named {name!r}") from None

    @property
    def level_of_row(self) -> np.ndarray:
        """Evaluation level of each LUT row (cached)."""
        cached = getattr(self, "_level_of_row", None)
        if cached is None:
            cached = np.zeros(self.n_luts, dtype=np.int64)
            for lvl, rows in enumerate(self.levels):
                cached[rows] = lvl
            object.__setattr__(self, "_level_of_row", cached)
        return cached

    @property
    def fanin(self) -> tuple[np.ndarray, np.ndarray]:
        """Golden fan-in of every node in CSR form (cached).

        Returns ``(ptr, src)``: ``src[ptr[n]:ptr[n + 1]]`` are the nodes
        node ``n`` reads — a LUT's four operands, an FF's D, CE and SR.
        """
        cached = getattr(self, "_fanin", None)
        if cached is None:
            dst = np.concatenate([np.repeat(self.lut_nodes, 4), np.repeat(self.ff_nodes, 3)])
            src = np.concatenate([
                self.lut_inputs.reshape(-1),
                np.stack([self.ff_d, self.ff_ce, self.ff_sr], axis=1).reshape(-1),
            ]).astype(np.intp)
            ptr = np.zeros(self.n_nodes + 1, dtype=np.intp)
            np.cumsum(np.bincount(dst, minlength=self.n_nodes), out=ptr[1:])
            cached = (ptr, src[np.argsort(dst, kind="stable")])
            object.__setattr__(self, "_fanin", cached)
        return cached

    @property
    def row_of_lut_node(self) -> dict[int, int]:
        """Map node index -> LUT row (cached)."""
        cached = getattr(self, "_row_of_lut_node", None)
        if cached is None:
            cached = {int(n): r for r, n in enumerate(self.lut_nodes)}
            object.__setattr__(self, "_row_of_lut_node", cached)
        return cached

    def __getstate__(self) -> dict:
        # The derived caches above stay out of pickles, so a design's
        # pickle (a content key) does not depend on which were computed.
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError`."""
        n = self.n_nodes
        if self.node_kind.shape != (n,) or self.const_values.shape != (n,):
            raise NetlistError("node table shapes inconsistent with n_nodes")
        if self.node_kind[NODE_CONST0] != int(NodeKind.CONST) or self.const_values[NODE_CONST0] != 0:
            raise NetlistError("node 0 must be the constant 0")
        if self.node_kind[NODE_CONST1] != int(NodeKind.CONST) or self.const_values[NODE_CONST1] != 1:
            raise NetlistError("node 1 must be the constant 1")
        for arr, label in [
            (self.input_nodes, "input_nodes"),
            (self.output_nodes, "output_nodes"),
            (self.lut_nodes, "lut_nodes"),
            (self.lut_inputs, "lut_inputs"),
            (self.ff_nodes, "ff_nodes"),
            (self.ff_d, "ff_d"),
            (self.ff_ce, "ff_ce"),
            (self.ff_sr, "ff_sr"),
        ]:
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise NetlistError(f"{label} contains out-of-range node indices")
        if self.lut_inputs.shape != (self.n_luts, 4):
            raise NetlistError("lut_inputs must be (n_luts, 4)")
        if self.lut_tables.shape != (self.n_luts, 16):
            raise NetlistError("lut_tables must be (n_luts, 16)")
        covered = np.concatenate([lv for lv in self.levels]) if self.levels else np.zeros(0, dtype=np.int64)
        if sorted(covered.tolist()) != list(range(self.n_luts)):
            raise NetlistError("levels must cover every LUT row exactly once")
        for name, arr in [("ff_init", self.ff_init), ("ff_clocked", self.ff_clocked)]:
            if arr.shape != (self.n_ffs,):
                raise NetlistError(f"{name} must be (n_ffs,)")

    def stats(self) -> dict[str, int]:
        return {
            "nodes": self.n_nodes,
            "luts": self.n_luts,
            "ffs": self.n_ffs,
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
            "levels": len(self.levels),
            "half_latches": int(self.half_latch_nodes.size),
        }
