"""The compiled machine-major verdict loop against the lock-step loop.

With a C compiler, :meth:`BatchSimulator.run_verdicts` and
:func:`~repro.engine.detect.detect_failures` run each machine to its own
verdict in one foreign call (``repro_verdicts``); the numpy body keeps
the lock-step loop, which is the reference here.  Every differential
case runs both on the same seeded oracle designs and requires identical
``MachineVerdict`` lists and detect arrays.
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest

from repro.engine.detect import detect_failures
from repro.errors import NetlistError
from repro.netlist import Netlist, Patch, compile_netlist, lut_table, native
from repro.netlist.cells import LUT_XOR2
from repro.netlist.compiled import FFField, NodeKind
from repro.netlist.simulator import KERNEL_COUNTERS, BatchSimulator
from tests.utils.oracle import random_compiled_design, random_patch

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

SEEDS = range(60)


def _suffix(design, golden, n_cycles):
    """Reverse-OR of the golden per-cycle address rows (run_verdicts shape)."""
    suffix = np.zeros((n_cycles + 1, design.n_luts), dtype=np.uint16)
    suffix[:n_cycles] = np.bitwise_or.accumulate(golden.addr_rows[::-1], axis=0)[::-1]
    return suffix


def _sim(design, patches, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # settle-cap note
        return BatchSimulator(design, patches, **kw)


def _verdicts(design, patches, stim, detect, persist, converge=3, retire=True):
    """One run_verdicts call; returns (verdicts, counter delta, simulator)."""
    golden = BatchSimulator.golden_trace(design, stim, record_addr_rows=True)
    sim = _sim(design, patches, companion=retire)
    before = KERNEL_COUNTERS.snapshot()
    verdicts = sim.run_verdicts(
        stim, golden, detect, persist, converge, retire=retire,
        addr_suffix=_suffix(design, golden, stim.shape[0]) if retire else None,
    )
    return verdicts, KERNEL_COUNTERS.delta(before), sim


def _detect(design, patches, stim, cycles, retire):
    golden = BatchSimulator.golden_trace(design, stim)
    sim = _sim(design, patches)
    before = KERNEL_COUNTERS.snapshot()
    failed = detect_failures(sim, stim, golden.outputs, cycles, retire=retire)
    return failed, KERNEL_COUNTERS.delta(before), sim


@pytest.fixture
def both_paths(monkeypatch):
    """``run(fn)`` -> ``(compiled, lock-step)`` results of ``fn()``."""

    def run(fn):
        compiled = fn()
        with monkeypatch.context() as mp:
            mp.setattr(native, "_step", None)
            lockstep = fn()
        return compiled, lockstep

    assert native.kernel() is not None, "cc is on PATH but the native kernel failed"
    return run


def _random_case(seed, n_machines=6, cycles=(8, 40)):
    rng = np.random.default_rng(seed)
    design = random_compiled_design(rng)
    patches = [random_patch(rng, design) if rng.random() < 0.8 else Patch()
               for _ in range(n_machines)]
    T = int(rng.integers(*cycles))
    stim = rng.integers(0, 2, size=(T, design.n_inputs)).astype(np.uint8)
    detect = int(rng.integers(1, T + 1))
    return rng, design, patches, stim, detect, T - detect


def _xor_ff_design():
    nl = Netlist("d")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_lut("x", LUT_XOR2, ["a", "b"])
    nl.add_ff("q", "x")
    nl.set_outputs(["q", "x"])
    return compile_netlist(nl)


def _buffer_design():
    """Input ``a`` through one identity LUT to the only output."""
    nl = Netlist("buf")
    nl.add_input("a")
    nl.add_lut("x", lut_table(lambda v: v, 1), ["a"])
    nl.set_outputs(["x"])
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


@needs_cc
class TestVerdictsMatchLockstep:
    @pytest.mark.parametrize("retire", [True, False])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_batches(self, both_paths, seed, retire):
        _, design, patches, stim, detect, persist = _random_case(seed)
        got, want = both_paths(
            lambda: _verdicts(design, patches, stim, detect, persist, retire=retire)[0]
        )
        assert got == want

    def test_random_suite_covers_multi_settle_batches(self):
        settles = {
            _sim(d, p).settle_passes
            for d, p in (_random_case(s)[1:3] for s in SEEDS)
        }
        assert max(settles) > 1

    @pytest.mark.parametrize("seed", range(20))
    def test_half_latch_keepers_survive_repair(self, both_paths, seed):
        rng = np.random.default_rng(100 + seed)
        keepers = np.zeros(0)
        while not keepers.size:  # draw until the design has a keeper
            design = random_compiled_design(rng)
            keepers = np.flatnonzero(design.node_kind == int(NodeKind.HALF_LATCH))
        node = int(keepers[0])
        flipped = 1 - int(design.const_values[node])
        # The keeper upset rides along with a fault that a repair clears.
        patches = [
            Patch(consts=[(node, flipped)], outputs=[(0, 0)]),
            Patch(consts=[(node, flipped), (1, 0)]),
            Patch(consts=[(node, flipped)]),
            random_patch(rng, design),
        ]
        T = 30
        stim = rng.integers(0, 2, size=(T, design.n_inputs)).astype(np.uint8)

        def run():
            verdicts, _, sim = _verdicts(design, patches, stim, 20, 10)
            return verdicts, sim.values[:3, node].tolist()

        (got, got_keepers), (want, want_keepers) = both_paths(run)
        assert got == want
        assert got_keepers == want_keepers == [flipped] * 3

    @pytest.mark.parametrize("retire", [True, False])
    def test_ff_field_and_output_rebinding_patches(self, both_paths, retire):
        d = _xor_ff_design()
        rng = np.random.default_rng(7)
        stim = rng.integers(0, 2, size=(60, 2)).astype(np.uint8)
        a, b = d.node_of("a"), d.node_of("b")
        patches = [
            Patch(outputs=[(0, 1)]),
            Patch(outputs=[(1, a)]),
            Patch(ff_fields=[(0, FFField.CLOCKED, 0)]),
            Patch(ff_fields=[(0, FFField.D, b)]),
            Patch(ff_fields=[(0, FFField.SR, 1)]),
            Patch(ff_fields=[(0, FFField.CE, 0), (0, FFField.INIT, 1)]),
            Patch(),
        ]
        got, want = both_paths(
            lambda: _verdicts(d, patches, stim, 40, 20, retire=retire)[0]
        )
        assert got == want
        assert sum(v.failed for v in got) >= 4

    @pytest.mark.parametrize("retire", [True, False])
    def test_first_error_on_the_last_detect_cycle(self, both_paths, retire):
        d = _buffer_design()
        detect, persist = 12, 20
        stim = np.zeros((detect + persist, 1), dtype=np.uint8)
        stim[detect - 1] = 1  # the only cycle golden drives a 1
        stuck = Patch(outputs=[(0, 0)])  # output bound to constant 0
        got, want = both_paths(
            lambda: _verdicts(d, [stuck, Patch()], stim, detect, persist, retire=retire)[0]
        )
        assert got == want
        assert got[0].failed and got[0].first_error_cycle == detect - 1
        assert not got[1].failed

    def test_error_just_past_the_detect_window_is_missed(self, both_paths):
        d = _buffer_design()
        stim = np.zeros((30, 1), dtype=np.uint8)
        stim[12] = 1
        got, want = both_paths(
            lambda: _verdicts(d, [Patch(outputs=[(0, 0)])], stim, 12, 18)[0]
        )
        assert got == want and not got[0].failed

    @pytest.mark.parametrize("retire", [True, False])
    @pytest.mark.parametrize("persist", [4, 7, 8])
    def test_closed_form_at_the_budget_edge(self, both_paths, retire, persist):
        # Repaired at the last detect cycle with golden state: rule 2
        # seals at once, and t + converge_run lands past the window's
        # last cycle (persist 4, 7) or exactly on it (persist 8).
        d = _buffer_design()
        detect, converge = 12, 8
        stim = np.zeros((detect + persist, 1), dtype=np.uint8)
        stim[detect - 1] = 1
        got, want = both_paths(
            lambda: _verdicts(
                d, [Patch(outputs=[(0, 0)])], stim, detect, persist, converge, retire
            )[0]
        )
        assert got == want
        assert got[0].failed and got[0].persistent == (persist < 8)
        assert got[0].recovered_cycle == (-1 if persist < 8 else detect - 1 + converge)

    def test_closed_form_inside_the_budget_recovers(self, both_paths):
        d = _buffer_design()
        detect, persist, converge = 12, 20, 8
        stim = np.zeros((detect + persist, 1), dtype=np.uint8)
        stim[3] = 1
        got, want = both_paths(
            lambda: _verdicts(d, [Patch(outputs=[(0, 0)])], stim, detect, persist, converge)[0]
        )
        assert got == want
        assert not got[0].persistent and got[0].recovered_cycle == 3 + converge


@needs_cc
class TestDetectMatchesLockstep:
    @pytest.mark.parametrize("retire", [True, False])
    @pytest.mark.parametrize("seed", range(40))
    def test_random_batches(self, both_paths, seed, retire):
        _, design, patches, stim, _, _ = _random_case(200 + seed, n_machines=9)
        cycles = stim.shape[0] - int(seed % 3)
        got, want = both_paths(lambda: _detect(design, patches, stim, cycles, retire)[0])
        np.testing.assert_array_equal(got, want)

    def test_early_exit_stops_each_machine_at_its_first_mismatch(self, both_paths):
        d = _buffer_design()
        stim = np.zeros((20, 1), dtype=np.uint8)
        stim[[4, 9]] = 1
        patches = [Patch(outputs=[(0, 0)]), Patch(outputs=[(0, 1)]), Patch()]
        got, want = both_paths(lambda: _detect(d, patches, stim, 20, True)[:2])
        np.testing.assert_array_equal(got[0], want[0])
        assert got[0].tolist() == [True, True, False]
        # Machine-major: stops at cycles 4, 0 and 19 (the batch's last).
        retired, compactions, saved, _ = got[1]
        assert (retired, compactions, saved) == (2, 0, (19 - 4) + (19 - 0))


@needs_cc
class TestMachineMajorCounters:
    """``machines_retired`` counts machines sealed before the batch's last
    cycle and ``machine_cycles_saved`` the cycles they did not run; no
    batch is compacted, and without ``retire`` every counter stays 0."""

    def _lfsr_case(self):
        d = _lfsr4()
        stim = np.zeros((50, 0), dtype=np.uint8)
        patches = [
            Patch(lut_tables=[(0, np.zeros(16, dtype=np.uint8))]),  # persistent
            Patch(),  # clean: sealed at cycle 0 by the quiet rule
            Patch(),
        ]
        return d, stim, patches

    def test_retire_counts_early_stops(self):
        d, stim, patches = self._lfsr_case()
        verdicts, delta, sim = _verdicts(d, patches, stim, 30, 20, converge=8)
        assert sim._native is not None
        assert verdicts[0].persistent and not verdicts[1].failed
        retired, compactions, saved, _ = delta
        assert (retired, compactions, saved) == (2, 0, 2 * 49)
        assert sim.B == 4  # nothing compacted

    def test_no_retire_counts_nothing(self):
        d, stim, patches = self._lfsr_case()
        _, delta, _ = _verdicts(d, patches, stim, 30, 20, converge=8, retire=False)
        assert delta[:3] == (0, 0, 0)
        _, delta, _ = _detect(d, patches, stim, 30, retire=False)
        assert delta[:3] == (0, 0, 0)


@pytest.mark.usefixtures("reference_path")
class TestVerdictPlanSafety:
    """Arguments are checked before any pointer reaches C (both legs)."""

    def _fields(self, detect_only=False):
        rng = np.random.default_rng(11)
        design = random_compiled_design(rng)
        patches = [random_patch(rng, design) for _ in range(3)]
        stim = rng.integers(0, 2, size=(20, design.n_inputs)).astype(np.uint8)
        golden = BatchSimulator.golden_trace(design, stim, record_addr_rows=True)
        sim = _sim(design, patches, companion=True)
        step = native.StepPlan(None, **sim._step_fields())
        fields = sim._verdict_fields(
            stim, golden.outputs, 20, detect_cycles=12, converge_run=3, retire=True,
            addr_suffix=_suffix(design, golden, 20), detect_only=detect_only,
        )
        return step, fields

    @pytest.mark.parametrize("detect_only", [False, True])
    def test_wrong_arrays_raise_value_error(self, detect_only):
        step, fields = self._fields(detect_only)
        native.VerdictPlan(None, step, **dict(fields))  # the real arrays bind
        bad = {
            "ref": fields["ref"].astype(np.int16),
            "first_error": fields["first_error"].astype(np.int32),
            "stim": np.repeat(fields["stim"], 2)[::2],
            "stop": fields["stop"][:-1],
        }
        if not detect_only:
            bad["gold_gather"] = fields["gold_gather"].astype(np.int32)
            bad["suffix"] = fields["suffix"].astype(np.int64)
            bad["comp_state"] = fields["comp_state"][:-1]
            bad["gold_out"] = fields["gold_out"] + step.v_stride
            bad["const_nodes"] = fields["const_nodes"] - 1 - fields["const_nodes"].max()
            bad["flip_ptr"] = fields["flip_ptr"].copy()
            bad["flip_ptr"][0] = bad["flip_ptr"][1] + 1
        for name, arr in bad.items():
            with pytest.raises(ValueError, match=f"'{name}'"):
                native.VerdictPlan(None, step, **dict(fields, **{name: arr}))

    def test_machine_count_past_the_batch_raises(self):
        step, fields = self._fields()
        with pytest.raises(ValueError, match="machines"):
            native.VerdictPlan(None, step, **dict(fields, n_machines=step.B + 1))

    def test_non_binary_stimulus_raises_by_name(self):
        d = _xor_ff_design()
        stim = np.zeros((20, 2), dtype=np.uint8)
        golden = BatchSimulator.golden_trace(d, stim)
        stim[0, 1] = 2
        sim = BatchSimulator(d, [Patch(outputs=[(0, 1)])], companion=True)
        with pytest.raises(NetlistError, match="0/1 stimulus"):
            sim.run_verdicts(stim, golden, 12, 8, retire=True)
        with pytest.raises(NetlistError, match="0/1 stimulus"):
            detect_failures(BatchSimulator(d, [Patch()]), stim, golden.outputs, 20)

    def test_stimulus_of_the_wrong_width_raises_by_name(self):
        d = _xor_ff_design()
        golden = BatchSimulator.golden_trace(d, np.zeros((20, 2), dtype=np.uint8))
        with pytest.raises(NetlistError, match="stimulus"):
            detect_failures(
                BatchSimulator(d, [Patch()]), np.zeros((20, 3), np.uint8), golden.outputs, 20
            )
