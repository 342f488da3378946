import numpy as np
import pytest

from repro.errors import NetlistError
from repro.netlist import Netlist, Patch, compile_netlist
from repro.netlist.cells import LUT_XOR2
from repro.netlist.compiled import FFField, NODE_CONST0, NODE_CONST1


@pytest.fixture()
def design():
    nl = Netlist("d")
    nl.add_input("a")
    nl.add_lut("x", LUT_XOR2, ["a", "a"])
    nl.add_ff("q", "x")
    nl.set_outputs(["q"])
    return compile_netlist(nl)


class TestCompiledInvariants:
    def test_constant_nodes_pinned(self, design):
        assert design.const_values[NODE_CONST0] == 0
        assert design.const_values[NODE_CONST1] == 1

    def test_validate_catches_bad_levels(self, design):
        design.levels = [np.array([0, 0], dtype=np.int64)]
        with pytest.raises(NetlistError):
            design.validate()

    def test_validate_catches_out_of_range_nodes(self, design):
        design.lut_inputs[0, 0] = design.n_nodes
        with pytest.raises(NetlistError):
            design.validate()

    def test_validate_catches_shape_mismatch(self, design):
        design.ff_init = np.zeros(5, dtype=np.uint8)
        with pytest.raises(NetlistError):
            design.validate()

    def test_node_of_lookup(self, design):
        assert design.node_of("x") == int(design.lut_nodes[0])
        with pytest.raises(NetlistError):
            design.node_of("nope")

    def test_level_of_row_cache(self, design):
        lv = design.level_of_row
        assert lv.shape == (design.n_luts,)
        assert lv[0] == 0
        assert design.level_of_row is lv  # cached

    def test_row_of_lut_node_cache(self, design):
        m = design.row_of_lut_node
        assert m[int(design.lut_nodes[0])] == 0

    def test_half_latch_nodes_empty_for_reference_compile(self, design):
        assert design.half_latch_nodes.size == 0

    def test_stats_keys(self, design):
        s = design.stats()
        assert s["luts"] == 1 and s["ffs"] == 1 and s["levels"] == 1


class TestPatch:
    def test_empty(self):
        assert Patch().is_empty()
        assert not Patch(consts=[(1, 0)]).is_empty()

    def test_merge_orders_entries(self):
        a = Patch(lut_inputs=[(0, 0, 1)])
        b = Patch(lut_inputs=[(0, 0, 2)], ff_fields=[(0, FFField.CE, 0)])
        m = a.merged_with(b)
        assert m.lut_inputs == [(0, 0, 1), (0, 0, 2)]  # later wins at apply
        assert m.ff_fields == [(0, FFField.CE, 0)]

    def test_merge_does_not_mutate_operands(self):
        a = Patch(consts=[(1, 0)])
        b = Patch(consts=[(0, 1)])
        a.merged_with(b)
        assert a.consts == [(1, 0)] and b.consts == [(0, 1)]

    def test_later_entry_wins_when_applied(self, design):
        from repro.netlist import BatchSimulator

        p = Patch(lut_inputs=[(0, 0, NODE_CONST0), (0, 0, NODE_CONST1)])
        sim = BatchSimulator(design, [p])
        assert sim.lut_inputs[0, 0, 0] == NODE_CONST1

    def test_pickle_round_trip(self):
        import pickle

        table = np.arange(16, dtype=np.uint8) % 2
        p = Patch(
            lut_tables=[(3, table), (3, 1 - table)],
            lut_inputs=[(0, 2, 7)],
            ff_fields=[(1, FFField.D, 9), (1, FFField.CLOCKED, 0)],
            consts=[(1, 0)],
            outputs=[(0, 5)],
        )
        q = pickle.loads(pickle.dumps(p))
        assert q.signature() == p.signature()
        assert [row for row, _ in q.lut_tables] == [3, 3]
        for (_, a), (_, b) in zip(q.lut_tables, p.lut_tables):
            assert a.dtype == np.uint8 and a.flags.writeable and np.array_equal(a, b)
        assert (q.lut_inputs, q.consts, q.outputs) == (p.lut_inputs, p.consts, p.outputs)
        assert [f for _, f, _ in q.ff_fields] == [FFField.D, FFField.CLOCKED]
        assert all(type(f) is FFField for _, f, _ in q.ff_fields)
        assert pickle.loads(pickle.dumps(Patch())) == Patch()
