import numpy as np
import pytest

from repro.errors import NetlistError
from repro.netlist import (
    BatchSimulator,
    Netlist,
    Patch,
    compile_netlist,
    lut_table,
)
from repro.netlist.cells import LUT_AND2, LUT_XOR2
from repro.netlist.compiled import FFField
from repro.netlist.simulator import ADDR_IDIOMS
from tests.utils.oracle import random_compiled_design


def _xor_ff_design():
    nl = Netlist("d")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_lut("x", LUT_XOR2, ["a", "b"])
    nl.add_ff("q", "x")
    nl.set_outputs(["q", "x"])
    return compile_netlist(nl)


def _lfsr4():
    nl = Netlist("lfsr4")
    nl.add_lut("fb", LUT_XOR2, ["q3", "q2"])
    prev = "fb"
    for i in range(4):
        nl.add_ff(f"q{i}", prev, init=1 if i == 0 else 0)
        prev = f"q{i}"
    nl.set_outputs(["q3"])
    return compile_netlist(nl)


class TestCompile:
    def test_stats(self):
        d = _xor_ff_design()
        assert d.n_luts == 1 and d.n_ffs == 1 and d.n_inputs == 2

    def test_validate_passes(self):
        _xor_ff_design().validate()

    def test_unconnected_pins_tied_high(self):
        nl = Netlist("c")
        nl.add_lut("x", lut_table(lambda a: a, 1), [])
        nl.set_outputs(["x"])
        d = compile_netlist(nl)
        sim = BatchSimulator(d)
        out = sim.step(np.zeros(0, dtype=np.uint8))
        assert out[0, 0] == 1  # floating pin reads the keeper 1

    def test_combinational_cycle_rejected(self):
        nl = Netlist("cyc")
        nl.add_lut("a", LUT_AND2, ["b", "b"])
        nl.add_lut("b", LUT_AND2, ["a", "a"])
        nl.set_outputs(["a"])
        with pytest.raises(NetlistError):
            compile_netlist(nl)


class TestSingleMachine:
    def test_xor_combinational(self):
        d = _xor_ff_design()
        sim = BatchSimulator(d)
        out = sim.step(np.array([1, 0], dtype=np.uint8))
        assert out[0, 1] == 1  # x = a ^ b immediately

    def test_ff_latches_one_cycle_later(self):
        d = _xor_ff_design()
        sim = BatchSimulator(d)
        out0 = sim.step(np.array([1, 0], dtype=np.uint8))
        assert out0[0, 0] == 0  # q still init
        out1 = sim.step(np.array([0, 0], dtype=np.uint8))
        assert out1[0, 0] == 1  # q captured x=1

    def test_lfsr_is_periodic_not_constant(self):
        d = _lfsr4()
        g = BatchSimulator.golden_trace(d, np.zeros((40, 0), dtype=np.uint8))
        bits = g.outputs[:, 0]
        assert bits.any() and not bits.all()
        # Maximal 4-bit LFSR period is 15.
        assert np.array_equal(bits[:15], bits[15:30])

    def test_reset_restores_initial_state(self):
        d = _lfsr4()
        sim = BatchSimulator(d)
        first = sim.run(np.zeros((10, 0), dtype=np.uint8))
        sim.reset()
        second = sim.run(np.zeros((10, 0), dtype=np.uint8))
        assert np.array_equal(first, second)

    def test_stimulus_width_checked(self):
        d = _xor_ff_design()
        sim = BatchSimulator(d)
        with pytest.raises(NetlistError):
            sim.step(np.zeros(5, dtype=np.uint8))


class TestGoldenTrace:
    def test_addr_seen_mask(self):
        d = _xor_ff_design()
        stim = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        # pins 2,3 tied high -> addresses include bits 2|3 set: 12, 13, 14.
        assert g.addr_seen[0] & (1 << 12)
        assert g.addr_seen[0] & (1 << 13)
        assert not g.addr_seen[0] & (1 << 15)

    def test_final_state_recorded(self):
        d = _lfsr4()
        g = BatchSimulator.golden_trace(d, np.zeros((5, 0), dtype=np.uint8))
        assert g.final_state.shape == (4,)


class TestBatchPatches:
    def test_patched_machine_differs_clean_machine_matches(self):
        d = _lfsr4()
        stim = np.zeros((30, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        bad_table = np.zeros(16, dtype=np.uint8)
        sim = BatchSimulator(d, [Patch(lut_tables=[(0, bad_table)]), Patch()])
        outs = sim.run(stim)
        assert not np.array_equal(outs[:, 0, :], g.outputs)
        assert np.array_equal(outs[:, 1, :], g.outputs)

    def test_ff_clocked_patch_freezes(self):
        d = _lfsr4()
        stim = np.zeros((10, 0), dtype=np.uint8)
        patch = Patch(ff_fields=[(i, FFField.CLOCKED, 0) for i in range(4)])
        sim = BatchSimulator(d, [patch])
        outs = sim.run(stim)
        assert (outs[:, 0, 0] == outs[0, 0, 0]).all()

    def test_ff_ce_patch_to_const0_freezes_one_ff(self):
        d = _xor_ff_design()
        patch = Patch(ff_fields=[(0, FFField.CE, 0)])  # node 0 = const 0
        sim = BatchSimulator(d, [patch])
        sim.step(np.array([1, 0], dtype=np.uint8))
        out = sim.step(np.array([0, 0], dtype=np.uint8))
        assert out[0, 0] == 0  # never captured

    def test_output_rebinding_patch(self):
        d = _xor_ff_design()
        # Point output 0 at the constant-1 node.
        sim = BatchSimulator(d, [Patch(outputs=[(0, 1)])])
        out = sim.step(np.array([0, 0], dtype=np.uint8))
        assert out[0, 0] == 1

    def test_const_patch_rejected_on_non_const_node(self):
        d = _xor_ff_design()
        lut_node = int(d.lut_nodes[0])
        with pytest.raises(NetlistError):
            BatchSimulator(d, [Patch(consts=[(lut_node, 0)])])


#: (field the error must name, Patch keyword, bad entries for design d)
_BAD_FIELDS = [
    ("lut_inputs node", "lut_inputs", lambda d: [(0, 0, d.n_nodes + 5)]),
    ("lut_inputs node", "lut_inputs", lambda d: [(0, 0, -1)]),
    ("lut_inputs row", "lut_inputs", lambda d: [(d.n_luts, 0, 2)]),
    ("lut_inputs row", "lut_inputs", lambda d: [(-1, 0, 2)]),
    ("lut_inputs pin", "lut_inputs", lambda d: [(0, 4, 2)]),
    ("lut_inputs pin", "lut_inputs", lambda d: [(0, -1, 2)]),
    ("lut_tables row", "lut_tables", lambda d: [(d.n_luts, np.zeros(16, np.uint8))]),
    ("lut_tables entries", "lut_tables", lambda d: [(0, np.full(16, 2, np.uint8))]),
    ("16 entries", "lut_tables", lambda d: [(0, np.zeros(15, np.uint8))]),
    ("ff_fields node", "ff_fields", lambda d: [(0, FFField.D, d.n_nodes)]),
    ("ff_fields node", "ff_fields", lambda d: [(0, FFField.CE, -2)]),
    ("ff_fields node", "ff_fields", lambda d: [(0, FFField.SR, d.n_nodes + 1)]),
    ("ff_fields row", "ff_fields", lambda d: [(d.n_ffs, FFField.D, 0)]),
    ("ff_fields value", "ff_fields", lambda d: [(0, FFField.INIT, 2)]),
    ("ff_fields value", "ff_fields", lambda d: [(0, FFField.CLOCKED, 3)]),
    ("consts node", "consts", lambda d: [(d.n_nodes, 0)]),
    ("consts value", "consts", lambda d: [(1, 2)]),
    ("outputs node", "outputs", lambda d: [(0, d.n_nodes + 3)]),
    ("outputs position", "outputs", lambda d: [(d.n_outputs, 1)]),
]


class TestPatchRangeChecks:
    """Out-of-range patch fields fail by name instead of reading memory.

    Node indices are used unchecked by the kernel: one past ``n_nodes``
    reads the next machine's node once B >= 2, and a negative one wraps.
    """

    @pytest.mark.parametrize("field, kw, bad", _BAD_FIELDS)
    def test_bad_field_rejected_by_name(self, field, kw, bad):
        d = _xor_ff_design()
        with pytest.raises(NetlistError, match=field):
            BatchSimulator(d, [Patch(**{kw: bad(d)}), Patch()])

    def test_bad_mid_run_patch_leaves_machine_untouched(self):
        d = _xor_ff_design()
        sim = BatchSimulator(d, [Patch(), Patch()])
        with pytest.raises(NetlistError, match="outputs node"):
            sim._apply_patch(0, Patch(outputs=[(0, d.n_nodes)]))
        np.testing.assert_array_equal(sim.output_nodes[0], d.output_nodes)


class TestRepair:
    def test_repair_restores_hardware_not_state(self):
        d = _lfsr4()
        stim = np.zeros((40, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        bad = Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])
        sim = BatchSimulator(d, [bad])
        for t in range(10):
            sim.step(stim[t])
        sim.repair_machine(0)
        # Hardware is golden again...
        assert np.array_equal(sim.lut_tables[0], d.lut_tables)
        # ...but the corrupted LFSR state keeps outputs diverged (the
        # persistence mechanism).
        diverged = False
        for t in range(10, 40):
            out = sim.step(stim[t])
            if out[0, 0] != g.outputs[t, 0]:
                diverged = True
        assert diverged


class TestVerdicts:
    def test_clean_machine_not_failed(self):
        d = _lfsr4()
        stim = np.zeros((60, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        sim = BatchSimulator(d, [Patch()])
        (v,) = sim.run_verdicts(stim, g, 30, 20)
        assert not v.failed

    def test_lfsr_fault_is_persistent(self):
        d = _lfsr4()
        stim = np.zeros((80, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        bad = Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])
        sim = BatchSimulator(d, [bad])
        (v,) = sim.run_verdicts(stim, g, 40, 30)
        assert v.failed and v.persistent

    def test_feedforward_fault_is_transient(self):
        d = _xor_ff_design()
        rng = np.random.default_rng(0)
        stim = rng.integers(0, 2, size=(80, 2)).astype(np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        bad = Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))])
        sim = BatchSimulator(d, [bad])
        (v,) = sim.run_verdicts(stim, g, 40, 30)
        assert v.failed and not v.persistent
        assert v.recovered_cycle > v.first_error_cycle

    def test_stimulus_budget_checked(self):
        d = _lfsr4()
        stim = np.zeros((10, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        sim = BatchSimulator(d)
        with pytest.raises(NetlistError):
            sim.run_verdicts(stim, g, 20, 20)


class TestInitialValues:
    def test_snapshot_resume_matches_continuous_run(self):
        d = _lfsr4()
        stim = np.zeros((30, 0), dtype=np.uint8)
        g = BatchSimulator.golden_trace(d, stim)
        warm = BatchSimulator(d)
        warm.run(stim[:10])
        snap = warm.state_snapshot()
        resumed = BatchSimulator(d, initial_values=snap)
        outs = resumed.run(stim[10:])
        assert np.array_equal(outs[:, 0, :], g.outputs[10:])

    def test_bad_snapshot_shape_rejected(self):
        d = _lfsr4()
        with pytest.raises(NetlistError):
            BatchSimulator(d, initial_values=np.zeros(3, dtype=np.uint8))


#: row ``p`` holds the operands (op0, op1, op2, op3) of LUT address ``p``
_PATTERNS = np.array([[(p >> i) & 1 for i in range(4)] for p in range(16)], dtype=np.uint8)


def _decoder_design(n_luts: int):
    """Four inputs feeding one level of ``n_luts`` one-hot decoders.

    LUT ``j`` outputs 1 exactly when its composed address is ``j % 16``,
    so the output row names the address the kernel computed.
    """
    nl = Netlist("decoders")
    pins = [nl.add_input(f"a{i}") for i in range(4)]
    nl.set_outputs([nl.add_lut(f"l{j}", 1 << (j % 16), pins) for j in range(n_luts)])
    d = compile_netlist(nl)
    assert len(d.levels) == 1 and d.levels[0].size == n_luts
    return d


def _one_hot_tables(d, shift: int) -> Patch:
    """Retable LUT ``j`` of a decoder design to fire at ``(j + shift) % 16``."""
    rows = [(d.row_of_lut_node[d.node_of(f"l{j}")], j) for j in range(d.n_luts)]
    return Patch(lut_tables=[(r, np.eye(16, dtype=np.uint8)[(j + shift) % 16]) for r, j in rows])


@pytest.mark.usefixtures("reference_path")
class TestKernelIdioms:
    """The fused level and FF update against their definitions, exhaustively.

    Each test runs on the compiled step and on the numpy body.
    """

    @pytest.mark.parametrize("order", sorted(ADDR_IDIOMS))
    def test_multiplier_composes_address_in_both_byte_orders(self, order):
        mul, byte = ADDR_IDIOMS[order]
        dt = np.dtype(np.uint32).newbyteorder("<" if order == "little" else ">")
        words = _PATTERNS.view(dt)[:, 0].astype(np.uint32)
        prod = (words * np.uint32(mul)).astype(dt)
        assert prod.view(np.uint8).reshape(16, 4)[:, byte].tolist() == list(range(16))

    def test_one_lut_level_all_patterns(self):
        d = _decoder_design(1)
        # Machine m's single LUT fires at address m.
        sim = BatchSimulator(d, [_one_hot_tables(d, m) for m in range(16)])
        outs = sim.run(_PATTERNS)  # cycle t drives address t
        np.testing.assert_array_equal(outs[:, :, 0], np.eye(16, dtype=np.uint8))

    def test_wide_level_all_patterns(self):
        d = _decoder_design(48)
        outs = BatchSimulator(d).run(_PATTERNS)
        want = (np.arange(16)[:, None] == np.arange(48)[None, :] % 16).astype(np.uint8)
        np.testing.assert_array_equal(outs[:, 0, :], want)

    def test_address_capture_all_patterns(self):
        d = _decoder_design(20)
        g = BatchSimulator.golden_trace(d, _PATTERNS, record_addr_rows=True)
        want = np.left_shift(1, np.arange(16, dtype=np.uint16))[:, None]
        np.testing.assert_array_equal(g.addr_rows, np.broadcast_to(want, (16, 20)))

    def test_ff_update_priority_all_combinations(self):
        # FF c takes (D, CE, SR, current) = bits 0..3 of c, D/CE/SR from
        # inputs and the current value from its power-on INIT.
        nl = Netlist("ffs")
        names = []
        for c in range(16):
            pins = [nl.add_input(f"{p}{c}") for p in ("d", "ce", "sr")]
            names.append(nl.add_ff(f"q{c}", *pins, init=(c >> 3) & 1))
        nl.set_outputs(names)
        d = compile_netlist(nl)
        stim = np.zeros(d.n_inputs, dtype=np.uint8)
        for c in range(16):
            for i, p in enumerate(("d", "ce", "sr")):
                pos = int(np.flatnonzero(d.input_nodes == d.node_of(f"{p}{c}"))[0])
                stim[pos] = (c >> i) & 1
        unclocked = Patch(ff_fields=[(r, FFField.CLOCKED, 0) for r in range(16)])
        sim = BatchSimulator(d, [Patch(), unclocked])
        sim.step(stim)
        q = sim.values[:, [d.node_of(n) for n in names]]
        for c in range(16):
            dv, ce, sr, cur = ((c >> i) & 1 for i in range(4))
            assert q[0, c] == (0 if sr else dv if ce else cur), c
            assert q[1, c] == cur, c


class TestBinaryGuard:
    """Both kernel paths reject non-binary stimulus and snapshots by name.

    A value above 1 would index another LUT's truth-table entry.
    """

    @pytest.mark.parametrize("bad", [2, 255, -1])
    def test_non_binary_stimulus_rejected(self, sim_class, bad):
        design = random_compiled_design(np.random.default_rng(7))
        sim = sim_class(design)
        row = np.zeros(design.n_inputs, dtype=np.int64)
        sim.step(row)  # 0/1 rows run
        row[-1] = bad
        with pytest.raises(NetlistError, match="requires 0/1 stimulus"):
            sim.step(row)

    def test_non_binary_initial_values_rejected(self, sim_class):
        design = random_compiled_design(np.random.default_rng(8))
        snapshot = np.zeros(design.n_nodes, dtype=np.uint8)
        sim_class(design, initial_values=snapshot)  # 0/1 snapshots load
        snapshot[int(design.lut_nodes[0])] = 2
        with pytest.raises(NetlistError, match="requires 0/1 initial_values"):
            sim_class(design, initial_values=snapshot)
