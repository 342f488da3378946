"""A deliberately naive pure-Python reference simulator (the test oracle).

`OracleSimulator` re-implements :class:`repro.netlist.simulator.BatchSimulator`
semantics with dicts, lists and explicit loops — no numpy, no gather
caches, no preallocated buffers — so the two share *no* code beyond the
:class:`~repro.netlist.compiled.CompiledDesign`/`Patch` data model.  The
differential suite (``tests/netlist/test_differential_oracle.py``)
drives both in lock-step over randomized designs and asserts bit-for-bit
identical outputs and node states; any kernel optimisation that changes
semantics trips it.

The semantics mirrored here, in the order they matter:

* power-on reset: all nodes 0, CONST and HALF_LATCH nodes take the
  machine's (possibly patched) constant, FF nodes take INIT; with an
  ``initial_values`` snapshot, the snapshot is restored and per-machine
  constants overlaid;
* evaluation: ``settle_passes`` sweeps over the golden levelization;
  within one level all operand reads happen before any LUT output
  write (the batch kernel's gather-then-scatter);
* a cycle: inputs applied, combinational fixpoint, outputs sampled
  *pre-clock*, then all FFs clock simultaneously from pre-clock values
  (SR overrides CE; an unclocked FF holds);
* repair: golden hardware restored, CONST nodes re-asserted into the
  value state, HALF_LATCH keepers deliberately left as they are;
* the verdict protocol: a machine that errs inside the detect window is
  repaired after that cycle and then either re-matches golden for
  ``converge_run`` cycles in a row (recovered) or runs out of budget
  (persistent); it runs one machine at a time, with no sealing rules.

Also here: :func:`random_compiled_design` / :func:`random_patch`, the
seeded generators the differential suite samples its cases from.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.compiled import (
    NODE_CONST0,
    NODE_CONST1,
    CompiledDesign,
    FFField,
    NodeKind,
    Patch,
)

__all__ = ["OracleSimulator", "random_compiled_design", "random_patch"]


class OracleSimulator:
    """Naive per-machine, per-node reference simulator."""

    def __init__(
        self,
        design: CompiledDesign,
        patches: list[Patch] | None = None,
        settle_passes: int = 1,
        initial_values=None,
        companion: bool = False,
    ):
        self.design = design
        patches = list(patches) if patches else [Patch()]
        if companion:
            patches.append(Patch())
        self.patches = patches
        self.B = len(patches)
        self.settle_passes = int(settle_passes)
        self._initial_values = (
            None if initial_values is None else [int(v) for v in initial_values]
        )

        d = design
        # Per-machine hardware as plain Python structures.
        self.lut_inputs = [
            [[int(x) for x in row] for row in d.lut_inputs] for _ in range(self.B)
        ]
        self.lut_tables = [
            [[int(x) for x in row] for row in d.lut_tables] for _ in range(self.B)
        ]
        self.ff_d = [[int(x) for x in d.ff_d] for _ in range(self.B)]
        self.ff_ce = [[int(x) for x in d.ff_ce] for _ in range(self.B)]
        self.ff_sr = [[int(x) for x in d.ff_sr] for _ in range(self.B)]
        self.ff_init = [[int(x) for x in d.ff_init] for _ in range(self.B)]
        self.ff_clocked = [[int(x) for x in d.ff_clocked] for _ in range(self.B)]
        self.const_values = [[int(x) for x in d.const_values] for _ in range(self.B)]
        self.output_nodes = [[int(x) for x in d.output_nodes] for _ in range(self.B)]
        self._const_nodes = [
            n
            for n in range(d.n_nodes)
            if int(d.node_kind[n]) in (int(NodeKind.CONST), int(NodeKind.HALF_LATCH))
        ]

        for m, patch in enumerate(patches):
            self._apply_patch(m, patch)

        self.values = [[0] * d.n_nodes for _ in range(self.B)]
        self.reset()

    def _apply_patch(self, m: int, patch: Patch) -> None:
        for row, table in patch.lut_tables:
            self.lut_tables[m][int(row)] = [int(x) for x in table]
        for row, pin, node in patch.lut_inputs:
            self.lut_inputs[m][int(row)][int(pin)] = int(node)
        for row, fieldname, value in patch.ff_fields:
            if fieldname is FFField.D:
                self.ff_d[m][int(row)] = int(value)
            elif fieldname is FFField.CE:
                self.ff_ce[m][int(row)] = int(value)
            elif fieldname is FFField.SR:
                self.ff_sr[m][int(row)] = int(value)
            elif fieldname is FFField.INIT:
                self.ff_init[m][int(row)] = int(value)
            elif fieldname is FFField.CLOCKED:
                self.ff_clocked[m][int(row)] = int(value)
        for node, value in patch.consts:
            kind = int(self.design.node_kind[int(node)])
            if kind not in (int(NodeKind.CONST), int(NodeKind.HALF_LATCH)):
                raise ValueError(f"const patch targets non-constant node {node}")
            self.const_values[m][int(node)] = int(value)
        for pos, node in patch.outputs:
            self.output_nodes[m][int(pos)] = int(node)

    def reset(self) -> None:
        d = self.design
        for m in range(self.B):
            vals = self.values[m]
            if self._initial_values is not None:
                vals[:] = self._initial_values
                for n in self._const_nodes:
                    vals[n] = self.const_values[m][n]
                continue
            for n in range(d.n_nodes):
                vals[n] = 0
            for n in self._const_nodes:
                vals[n] = self.const_values[m][n]
            for row in range(d.n_ffs):
                vals[int(d.ff_nodes[row])] = self.ff_init[m][row]

    def _eval_combinational(self, m: int) -> None:
        d = self.design
        vals = self.values[m]
        for _ in range(self.settle_passes):
            for level_rows in d.levels:
                # Read every operand in the level before writing any
                # output — the kernel's gather-then-scatter discipline.
                pending = []
                for row in level_rows:
                    row = int(row)
                    ops = self.lut_inputs[m][row]
                    addr = (
                        vals[ops[0]]
                        | (vals[ops[1]] << 1)
                        | (vals[ops[2]] << 2)
                        | (vals[ops[3]] << 3)
                    )
                    pending.append((int(d.lut_nodes[row]), self.lut_tables[m][row][addr]))
                for node, value in pending:
                    vals[node] = value

    def _clock_ffs(self, m: int) -> None:
        d = self.design
        vals = self.values[m]
        pending = []
        for row in range(d.n_ffs):
            cur = vals[int(d.ff_nodes[row])]
            dval = vals[self.ff_d[m][row]]
            ce = vals[self.ff_ce[m][row]]
            sr = vals[self.ff_sr[m][row]]
            new = cur
            if ce == 1:
                new = dval
            if sr == 1:
                new = 0
            if self.ff_clocked[m][row] != 1:
                new = cur
            pending.append((int(d.ff_nodes[row]), new))
        for node, value in pending:
            vals[node] = value

    def _step_machine(self, m: int, stimulus_row) -> list[int]:
        """One clock cycle of machine ``m``; returns its outputs."""
        vals = self.values[m]
        for i, node in enumerate(self.design.input_nodes):
            vals[int(node)] = int(stimulus_row[i])
        self._eval_combinational(m)
        out = [vals[n] for n in self.output_nodes[m]]
        self._clock_ffs(m)
        return out

    def step(self, stimulus_row) -> list[list[int]]:
        """One clock cycle; returns outputs as a (B, n_outputs) list."""
        return [self._step_machine(m, stimulus_row) for m in range(self.B)]

    def run(self, stimulus) -> np.ndarray:
        """(cycles, n_inputs) stimulus -> (cycles, B, n_outputs) outputs."""
        rows = [self.step(stimulus[t]) for t in range(len(stimulus))]
        return np.array(rows, dtype=np.uint8)

    def repair_machine(self, m: int) -> None:
        d = self.design
        self.lut_inputs[m] = [[int(x) for x in row] for row in d.lut_inputs]
        self.lut_tables[m] = [[int(x) for x in row] for row in d.lut_tables]
        self.ff_d[m] = [int(x) for x in d.ff_d]
        self.ff_ce[m] = [int(x) for x in d.ff_ce]
        self.ff_sr[m] = [int(x) for x in d.ff_sr]
        self.ff_init[m] = [int(x) for x in d.ff_init]
        self.ff_clocked[m] = [int(x) for x in d.ff_clocked]
        self.output_nodes[m] = [int(x) for x in d.output_nodes]
        for n in range(d.n_nodes):
            if int(d.node_kind[n]) == int(NodeKind.CONST):
                self.const_values[m][n] = int(d.const_values[n])
                self.values[m][n] = int(d.const_values[n])

    def run_verdicts(
        self, stimulus, golden_outputs, detect_cycles: int, persist_cycles: int,
        converge_run: int,
    ) -> list[tuple[bool, int, bool, int]]:
        """The detect/repair/persist protocol, one machine at a time.

        Starts from :meth:`reset`.  Returns one ``(failed,
        first_error_cycle, persistent, recovered_cycle)`` tuple per
        machine, the fields of ``MachineVerdict`` (-1 for a cycle that
        never happened).
        """
        golden = [[int(x) for x in row] for row in golden_outputs]
        self.reset()
        verdicts = []
        for m in range(self.B):
            first_error = recovered = -1
            persistent = False
            streak = 0
            for t in range(detect_cycles + persist_cycles):
                ok = self._step_machine(m, stimulus[t]) == golden[t]
                if first_error < 0:
                    if not ok:
                        first_error = t
                        self.repair_machine(m)
                    elif t == detect_cycles - 1:
                        break  # clean through the detect window
                    continue
                streak = streak + 1 if ok else 0
                if ok and streak >= converge_run:
                    recovered = t
                    break
            else:
                persistent = first_error >= 0
            verdicts.append((first_error >= 0, first_error, persistent, recovered))
        return verdicts

    def values_array(self) -> np.ndarray:
        """(B, n_nodes) uint8 node-state snapshot, for direct comparison."""
        return np.array(self.values, dtype=np.uint8)


# -- randomized case generation ------------------------------------------------


def random_compiled_design(rng: np.random.Generator, max_luts: int = 12) -> CompiledDesign:
    """A small random layered netlist that passes ``validate()``.

    Node layout: the two hard constants, 0-2 half-latch keepers, 1-4
    primary inputs, 0-4 flip-flops, then 1..``max_luts`` LUTs spread
    over 1-3 levels.  Every LUT operand is drawn from nodes legal under
    the golden schedule (constants, keepers, inputs, FFs, earlier-level
    LUTs); FF data/control taps any node, so feedback through the
    registers is common.
    """
    n_half = int(rng.integers(0, 3))
    n_inputs = int(rng.integers(1, 5))
    n_ffs = int(rng.integers(0, 5))
    n_luts = int(rng.integers(1, max_luts + 1))
    n_levels = int(rng.integers(1, min(3, n_luts) + 1))

    node = 2
    half_nodes = list(range(node, node + n_half))
    node += n_half
    input_nodes = list(range(node, node + n_inputs))
    node += n_inputs
    ff_nodes = list(range(node, node + n_ffs))
    node += n_ffs
    lut_nodes = list(range(node, node + n_luts))
    node += n_luts
    n_nodes = node

    node_kind = np.full(n_nodes, int(NodeKind.LUT), dtype=np.uint8)
    node_kind[NODE_CONST0] = node_kind[NODE_CONST1] = int(NodeKind.CONST)
    node_kind[half_nodes] = int(NodeKind.HALF_LATCH)
    node_kind[input_nodes] = int(NodeKind.INPUT)
    node_kind[ff_nodes] = int(NodeKind.FF)
    const_values = np.zeros(n_nodes, dtype=np.uint8)
    const_values[NODE_CONST1] = 1
    for n in half_nodes:
        const_values[n] = int(rng.integers(0, 2))

    # Cut the LUT rows into levels (every level non-empty).
    cuts = sorted(rng.choice(np.arange(1, n_luts), size=n_levels - 1, replace=False).tolist()) if n_levels > 1 else []
    bounds = [0, *cuts, n_luts]
    levels = [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64) for i in range(n_levels)
    ]

    base_pool = [NODE_CONST0, NODE_CONST1, *half_nodes, *input_nodes, *ff_nodes]
    lut_inputs = np.zeros((n_luts, 4), dtype=np.int32)
    lut_tables = rng.integers(0, 2, size=(n_luts, 16)).astype(np.uint8)
    for lvl_index, rows in enumerate(levels):
        pool = base_pool + [
            lut_nodes[r] for prev in levels[:lvl_index] for r in prev.tolist()
        ]
        for row in rows.tolist():
            lut_inputs[row] = rng.choice(pool, size=4)

    any_pool = base_pool + lut_nodes
    ff_d = np.array(rng.choice(any_pool, size=n_ffs), dtype=np.int32).reshape(n_ffs)
    # CE mostly tied high and SR mostly tied low, as real designs are.
    ff_ce = np.array(
        [
            NODE_CONST1 if rng.random() < 0.7 else int(rng.choice(any_pool))
            for _ in range(n_ffs)
        ],
        dtype=np.int32,
    )
    ff_sr = np.array(
        [
            NODE_CONST0 if rng.random() < 0.7 else int(rng.choice(any_pool))
            for _ in range(n_ffs)
        ],
        dtype=np.int32,
    )
    ff_init = rng.integers(0, 2, size=n_ffs).astype(np.uint8)
    ff_clocked = (rng.random(n_ffs) < 0.9).astype(np.uint8)

    n_outputs = int(rng.integers(1, 5))
    out_pool = lut_nodes + ff_nodes if (lut_nodes or ff_nodes) else any_pool
    output_nodes = np.array(rng.choice(out_pool, size=n_outputs), dtype=np.int32)

    design = CompiledDesign(
        name=f"rand-{rng.integers(1 << 30)}",
        n_nodes=n_nodes,
        node_kind=node_kind,
        const_values=const_values,
        input_nodes=np.array(input_nodes, dtype=np.int32),
        output_nodes=output_nodes,
        lut_nodes=np.array(lut_nodes, dtype=np.int32),
        lut_inputs=lut_inputs,
        lut_tables=lut_tables,
        levels=levels,
        ff_nodes=np.array(ff_nodes, dtype=np.int32),
        ff_d=ff_d,
        ff_ce=ff_ce,
        ff_sr=ff_sr,
        ff_init=ff_init,
        ff_clocked=ff_clocked,
    )
    design.validate()
    return design


def random_patch(rng: np.random.Generator, design: CompiledDesign) -> Patch:
    """A random fault patch against ``design``.

    Draws 1-3 mutations across every patch channel the decoder can
    produce: truth-table corruption, operand rewires (including
    schedule-violating ones, which exercise the settle-pass machinery),
    FF field faults, constant/keeper upsets and output rebinds.
    """
    patch = Patch()
    kinds = ["table", "rewire", "ff", "const", "output"]
    for _ in range(int(rng.integers(1, 4))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "table" and design.n_luts:
            row = int(rng.integers(design.n_luts))
            table = design.lut_tables[row].copy()
            table[int(rng.integers(16))] ^= 1
            patch.lut_tables.append((row, table))
        elif kind == "rewire" and design.n_luts:
            row = int(rng.integers(design.n_luts))
            pin = int(rng.integers(4))
            patch.lut_inputs.append((row, pin, int(rng.integers(design.n_nodes))))
        elif kind == "ff" and design.n_ffs:
            row = int(rng.integers(design.n_ffs))
            fieldname = FFField(int(rng.integers(5)))
            if fieldname in (FFField.INIT, FFField.CLOCKED):
                value = int(rng.integers(0, 2))
            else:
                value = int(rng.integers(design.n_nodes))
            patch.ff_fields.append((row, fieldname, value))
        elif kind == "const":
            const_nodes = np.flatnonzero(
                np.isin(
                    design.node_kind,
                    (int(NodeKind.CONST), int(NodeKind.HALF_LATCH)),
                )
            )
            node = int(rng.choice(const_nodes))
            patch.consts.append((node, int(rng.integers(0, 2))))
        elif kind == "output" and design.n_outputs:
            pos = int(rng.integers(design.n_outputs))
            patch.outputs.append((pos, int(rng.integers(design.n_nodes))))
    return patch
