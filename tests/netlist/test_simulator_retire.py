"""Fault dropping at the kernel level: retire must not move verdicts.

Machines never interact, so sealing a machine early cannot change any
other machine's trajectory — these tests pin that contract
(`run_verdicts(retire=True)` vs the naive pass), plus the settle-cap
diagnostics and the repair/addr-capture plumbing the retirement rules
build on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.netlist import BatchSimulator, Netlist, Patch, compile_netlist, lut_table
from repro.netlist.cells import LUT_XOR2
from repro.netlist.compiled import FFField
from repro.netlist.simulator import (
    KERNEL_COUNTERS,
    SETTLE_CAP,
    max_schedule_violations,
)


def _lfsr4():
    nl = Netlist("lfsr4")
    nl.add_lut("fb", LUT_XOR2, ["q3", "q2"])
    prev = "fb"
    for i in range(4):
        nl.add_ff(f"q{i}", prev, init=1 if i == 0 else 0)
        prev = f"q{i}"
    nl.set_outputs(["q3"])
    return compile_netlist(nl)


def _xor_ff_design():
    nl = Netlist("d")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_lut("x", LUT_XOR2, ["a", "b"])
    nl.add_ff("q", "x")
    nl.set_outputs(["q", "x"])
    return compile_netlist(nl)


def _lut_chain(n=5):
    nl = Netlist("chain")
    nl.add_input("a")
    prev = "a"
    for i in range(n):
        nl.add_lut(f"x{i}", lut_table(lambda v: v, 1), [prev])
        prev = f"x{i}"
    nl.set_outputs([prev])
    return compile_netlist(nl)


def _addr_suffix(design, golden, n_cycles):
    """Reverse-OR of the golden per-cycle address rows (run_verdicts shape)."""
    suffix = np.zeros((n_cycles + 1, design.n_luts), dtype=np.uint16)
    rows = golden.addr_rows
    suffix[:n_cycles] = np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1]
    return suffix


def _quiet_table_patch(design, golden):
    """Flip one truth-table entry golden never addresses: forever quiet."""
    seen = int(golden.addr_seen[0])
    entry = next(i for i in range(16) if not seen & (1 << i))
    table = design.lut_tables[0].copy()
    table[entry] ^= 1
    return Patch(lut_tables=[(0, table)])


class TestRetireVerdicts:
    def _verdict_pair(self, d, stim, patches, detect, persist):
        g = BatchSimulator.golden_trace(d, stim, record_addr_rows=True)
        naive = BatchSimulator(d, patches).run_verdicts(stim, g, detect, persist)
        sim = BatchSimulator(d, patches, companion=True)
        before = KERNEL_COUNTERS.snapshot()
        retired = sim.run_verdicts(
            stim, g, detect, persist, retire=True,
            addr_suffix=_addr_suffix(d, g, stim.shape[0]),
        )
        return naive, retired, KERNEL_COUNTERS.delta(before)

    def test_identical_to_naive_pass_and_actually_retires(self):
        d = _lfsr4()
        stim = np.zeros((80, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        patches = (
            [Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])] * 2  # persistent
            + [Patch()] * 6                                              # clean
            + [_quiet_table_patch(d, g)] * 6                             # quiet forever
        )
        naive, retired, (n_ret, saved, _) = self._verdict_pair(d, stim, patches, 40, 30)
        assert retired == naive  # MachineVerdict is a plain dataclass
        # The clean and quiet machines seal via the no-future-deviation
        # rule; cycles actually came off the batch.
        assert n_ret >= 8 and saved > 0

    def test_transient_fault_identity(self):
        d = _xor_ff_design()
        rng = np.random.default_rng(7)
        stim = rng.integers(0, 2, size=(80, 2)).astype(np.uint8)
        patches = (
            [Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])] * 6
            + [Patch(lut_tables=[(0, np.ones(16, dtype=np.uint8))])] * 6
            + [Patch()] * 4
        )
        naive, retired, (n_ret, _, _) = self._verdict_pair(d, stim, patches, 40, 30)
        assert retired == naive
        assert n_ret > 0  # repaired-and-converged machines seal early

    def test_retire_requires_companion(self):
        d = _lfsr4()
        stim = np.zeros((80, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        sim = BatchSimulator(d, [Patch()])
        with pytest.raises(NetlistError, match="companion"):
            sim.run_verdicts(stim, g, 40, 30, retire=True)

    def test_companion_excluded_from_verdicts(self):
        d = _lfsr4()
        stim = np.zeros((80, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim, record_addr_rows=True)
        sim = BatchSimulator(d, [Patch(), Patch()], companion=True)
        assert sim.B == 3  # two logical machines + golden companion
        verdicts = sim.run_verdicts(
            stim, g, 40, 30, retire=True,
            addr_suffix=_addr_suffix(d, g, stim.shape[0]),
        )
        assert len(verdicts) == 2
        assert not any(v.failed for v in verdicts)


class TestSettleCapDiagnostics:
    def _violating_patch(self, d, n_edges=4):
        return Patch(
            lut_inputs=[
                (0, pin, int(d.lut_nodes[row]))
                for pin, row in zip(range(n_edges), range(1, 1 + n_edges))
            ]
        )

    def test_deep_rewire_warns_and_records_uncapped_count(self):
        d = _lut_chain(5)
        patch = self._violating_patch(d, n_edges=SETTLE_CAP + 1)
        assert max_schedule_violations(d, [patch]) == SETTLE_CAP + 1
        with pytest.warns(RuntimeWarning, match="settle-pass cap"):
            sim = BatchSimulator(d, [patch])
        assert sim.schedule_violations_uncapped == SETTLE_CAP + 1
        assert sim.settle_passes == 1 + SETTLE_CAP  # capped

    def test_shallow_rewire_does_not_warn(self):
        d = _lut_chain(5)
        patch = self._violating_patch(d, n_edges=1)
        sim = BatchSimulator(d, [patch])
        assert sim.schedule_violations_uncapped == 1
        assert sim.settle_passes == 2

    def test_explicit_settle_passes_skips_autodetect(self):
        d = _lut_chain(5)
        patch = self._violating_patch(d, n_edges=SETTLE_CAP + 1)
        sim = BatchSimulator(d, [patch], settle_passes=6)
        assert sim.schedule_violations_uncapped is None
        assert sim.settle_passes == 6


class TestAddrRows:
    def test_rows_or_together_into_addr_seen(self):
        d = _xor_ff_design()
        stim = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim, record_addr_rows=True)
        assert g.addr_rows.shape == (3, d.n_luts)
        assert np.array_equal(
            np.bitwise_or.reduce(g.addr_rows, axis=0), g.addr_seen
        )

    def test_rows_absent_by_default(self):
        d = _xor_ff_design()
        stim = np.zeros((3, 2), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        assert g.addr_rows is None


class TestRepairRestoresEverything:
    def test_output_binding_and_clocked_field_restored(self):
        d = _xor_ff_design()
        patch = Patch(
            outputs=[(0, 1)],  # rebind output 0 to the constant-1 node
            ff_fields=[(0, FFField.CLOCKED, 0)],
        )
        sim = BatchSimulator(d, [patch])
        out = sim.step(np.array([0, 0], dtype=np.uint8))
        assert out[0, 0] == 1  # patched binding visible
        sim.repair_machine(0)
        assert np.array_equal(sim.output_nodes[0], d.output_nodes)
        assert np.array_equal(sim.ff_clocked[0], d.ff_clocked)
        # And behaviourally: the repaired machine tracks a clean one.
        clean = BatchSimulator(d, initial_values=sim.values[0].copy())
        stim = np.array([[1, 0], [0, 0], [1, 1]], dtype=np.uint8)
        assert np.array_equal(sim.run(stim), clean.run(stim))
