"""Design-sized simulation: a batch on its closure behaves as on the full design.

Fault models simulate every batch on :func:`repro.netlist.cone.restrict`'s
sub-design.  The differential suite draws random patch batches of each
fault kind — SEU single bits, MBU merged patches, half-latch constants,
BIST ``fault_patch`` pairs — on MULT4/S8, MULT6/S12, a random S4
configuration and the two BIST test variants, and runs each batch on
both designs under both kernel paths.  The edge-case tests pin the
closure and restriction rules one at a time.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.bist.coverage import BistCoverageModel
from repro.bist.faults import fault_patch, sample_faults
from repro.bist.patterns import clb_test_design
from repro.bitstream import ConfigBitstream
from repro.designs import get_design
from repro.engine import implemented_design
from repro.engine.detect import _lockstep_first_errors, detect_disturbed_outputs, detect_failures
from repro.errors import NetlistError
from repro.fpga import get_device
from repro.fpga.resources import WIRES_PER_DIRECTION
from repro.netlist import LUT_BUF, LUT_XOR2, Netlist, compile_netlist
from repro.netlist.compiled import FFField, NodeKind, Patch
from repro.netlist.cone import closure, output_cone, restrict
from repro.netlist.simulator import KERNEL_COUNTERS, SETTLE_CAP, BatchSimulator, GoldenTrace
from repro.place.configgen import IOBinding
from repro.place.decoder import DecodedDesign, decode_bitstream
from repro.seu import CampaignConfig
from repro.seu.campaign import build_context, simulate_batch
from tests.netlist.test_simulator import _BAD_FIELDS

WARM, DETECT, PERSIST, CONVERGE = 16, 48, 32, 8
KINDS = ("seu", "mbu", "halflatch", "bist")


@dataclass
class Bench:
    """A decoded design with a warm snapshot and its post-injection golden run."""

    decoded: DecodedDesign
    snapshot: np.ndarray
    stim: np.ndarray  # post-injection stimulus, DETECT + PERSIST rows
    outputs: np.ndarray  # golden outputs aligned with ``stim``
    addr_suffix: np.ndarray  # (rows + 1, n_luts) reverse-OR of golden addresses

    @property
    def design(self):
        return self.decoded.design


def _bench(decoded: DecodedDesign, stim: np.ndarray) -> Bench:
    d = decoded.design
    golden = BatchSimulator.golden_trace(d, stim, record_addr_rows=True)
    warm = BatchSimulator(d)
    warm.run(stim[:WARM])
    rows = golden.addr_rows[WARM:]
    suffix = np.zeros((rows.shape[0] + 1, d.n_luts), dtype=np.uint16)
    suffix[:-1] = np.bitwise_or.accumulate(rows[::-1], axis=0)[::-1]
    return Bench(decoded, warm.state_snapshot(), stim[WARM:], golden.outputs[WARM:], suffix)


def _random_s4(seed: int = 7, density: float = 0.25) -> DecodedDesign:
    """A random S4 configuration with output probes and two input taps."""
    dev = get_device("S4")
    rng = np.random.default_rng(seed)
    raw = (rng.random(dev.geometry.total_bits) < density).astype(np.uint8)

    def signal():
        return int(rng.integers(dev.rows)), int(rng.integers(dev.cols)), int(rng.integers(8))

    def incoming():
        return (*signal()[:2], int(rng.integers(4)), int(rng.integers(WIRES_PER_DIRECTION)))

    io = IOBinding(
        input_order=["a", "b"],
        taps={incoming(): int(rng.integers(2)) for _ in range(24)},
        output_probes=[signal() for _ in range(3)],
        net_taps={incoming(): signal() for _ in range(24)},
    )
    return decode_bitstream(dev, ConfigBitstream(dev.geometry, raw), io, n_spare=8)


_TOTAL = WARM + DETECT + PERSIST


@pytest.fixture(scope="module")
def benches() -> dict[str, Bench]:
    out = {}
    for name, device in (("MULT4", "S8"), ("MULT6", "S12")):
        hw = implemented_design(get_design(name), device)
        out[f"{name}/{device}"] = _bench(hw.decoded, hw.spec.stimulus(_TOTAL, 0))
    s4 = _random_s4()
    stim = np.random.default_rng(3).integers(0, 2, (_TOTAL, s4.design.n_inputs)).astype(np.uint8)
    out["random/S4"] = _bench(s4, stim)
    for v in (0, 1):
        hw = implemented_design(clb_test_design(2, register_bits=8, variant=v), "S8")
        out[f"bist{v}/S8"] = _bench(hw.decoded, hw.spec.stimulus(_TOTAL, 0))
    return out


def _draw(bench: Bench, kind: str, seed: int, n: int = 10) -> list[Patch]:
    """``n`` random patches of one fault kind (empty decodes dropped)."""
    dec = bench.decoded
    rng = np.random.default_rng(seed)
    live = np.flatnonzero(dec.live_bits)
    if kind == "seu":
        patches = [dec.patch_for_bit(int(b)) for b in rng.choice(live, n, replace=False)]
    elif kind == "mbu":
        patches = []
        for _ in range(n):
            merged = Patch()
            for b in rng.choice(live, 2, replace=False):
                p = dec.patch_for_bit(int(b))
                if p is not None:
                    merged = merged.merged_with(p)
            patches.append(merged)
    elif kind == "halflatch":
        nodes = rng.choice(dec.design.half_latch_nodes, n, replace=False)
        patches = [Patch(consts=[(int(node), 0)]) for node in nodes]
    else:
        patches = [fault_patch(dec, f) for f in sample_faults(dec, n, seed=seed)]
    return [p for p in patches if p is not None]


def _first_errors(sim: BatchSimulator, bench: Bench, cycles: int) -> np.ndarray:
    if sim._native is not None:
        return sim._run_machine_major(bench.stim, bench.outputs, cycles, detect_only=True)[0]
    return _lockstep_first_errors(sim, bench.stim, bench.outputs, cycles)


def _verdict_arrays(
    sim: BatchSimulator, bench: Bench, sub=None, detect=DETECT, persist=PERSIST
) -> tuple[np.ndarray, ...]:
    """``run_verdicts(retire=True)``'s per-machine arrays, stop cycles included."""
    run = sim._run_lockstep if sim._native is None else sim._run_machine_major
    suffix = bench.addr_suffix if sub is None else bench.addr_suffix[:, sub.lut_rows]
    return run(
        bench.stim,
        bench.outputs,
        detect + persist,
        detect_cycles=detect,
        converge_run=CONVERGE,
        retire=True,
        addr_suffix=suffix,
    )


def _counted(fn):
    before = KERNEL_COUNTERS.snapshot()
    result = fn()
    return result, KERNEL_COUNTERS.delta(before)


@pytest.mark.filterwarnings("ignore:patch set exceeds the settle-pass cap")
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", ["MULT4/S8", "MULT6/S12", "random/S4", "bist0/S8", "bist1/S8"])
class TestSubDesignMatchesFullDesign:
    def _pair(self, bench, kind, seed, companion=False):
        patches = _draw(bench, kind, seed)
        sub = restrict(bench.design, patches)
        full = BatchSimulator(
            bench.design, patches, initial_values=bench.snapshot, companion=companion
        )
        return sub, sub.simulator(bench.snapshot, companion=companion), full

    def test_outputs_and_settle_count(self, benches, name, kind, seed, reference_path):
        bench = benches[name]
        sub, part, full = self._pair(bench, kind, seed)
        assert part.B == full.B
        assert part.settle_passes == full.settle_passes
        assert part.schedule_violations_uncapped == full.schedule_violations_uncapped
        np.testing.assert_array_equal(part.run(bench.stim), full.run(bench.stim))
        # Kept nodes hold the full design's values at the end of the run.
        np.testing.assert_array_equal(part.values, full.values[:, sub.nodes])

    def test_detect_only_paths(self, benches, name, kind, seed, reference_path):
        bench = benches[name]
        _, part, full = self._pair(bench, kind, seed)
        np.testing.assert_array_equal(
            _first_errors(part, bench, DETECT), _first_errors(full, bench, DETECT)
        )
        _, part, full = self._pair(bench, kind, seed)
        args = (bench.stim, bench.outputs, DETECT)
        a, da = _counted(lambda: detect_failures(part, *args, retire=True))
        b, db = _counted(lambda: detect_failures(full, *args, retire=True))
        np.testing.assert_array_equal(a, b)
        assert da == db
        _, part, full = self._pair(bench, kind, seed)
        np.testing.assert_array_equal(
            detect_disturbed_outputs(part, bench.stim, bench.outputs, DETECT),
            detect_disturbed_outputs(full, bench.stim, bench.outputs, DETECT),
        )

    def test_repair_verdicts(self, benches, name, kind, seed, reference_path):
        """Verdict, first-error, recovery and persistence arrays are equal.

        Stop cycles are equal or earlier on the sub-design: retirement
        seals a machine whose state equals the golden companion's, and
        the full design also compares state no output can observe (see
        :class:`TestRetirementSeesOnlyTheClosure`)."""
        bench = benches[name]
        sub, part, full = self._pair(bench, kind, seed, companion=True)
        *kept, stop_part = _verdict_arrays(part, bench, sub)
        *ref, stop_full = _verdict_arrays(full, bench)
        for x, y in zip(kept, ref):
            np.testing.assert_array_equal(x, y)
        assert np.all(stop_part <= stop_full)
        # No retirement: the lock-step reference on both designs.
        _, part, full = self._pair(bench, kind, seed)
        golden = GoldenTrace(bench.outputs, bench.addr_suffix[0], np.zeros(0, np.uint8))
        args = (bench.stim, golden, DETECT, PERSIST, CONVERGE)
        assert part.run_verdicts(*args) == full.run_verdicts(*args)


class TestRetirementSeesOnlyTheClosure:
    def test_unobservable_ff_does_not_delay_retirement(self, reference_path):
        """MULT4/S8 bit 4948 stops clocking two FFs, one outside the cone.

        After the repair only that FF still differs from golden: the
        full design seals the machine one cycle later than the
        sub-design, which drops the FF.  Verdicts are the same.
        """
        hw = implemented_design(get_design("MULT4"), "S8")
        d = hw.decoded.design
        patch = hw.decoded.patch_for_bit(4948)
        rows = [row for row, f, _ in patch.ff_fields if f is FFField.CLOCKED]
        assert sorted(output_cone(d)[d.ff_nodes[rows]]) == [False, True]
        cfg = CampaignConfig()
        ctx = build_context(hw, cfg)
        bench = Bench(
            hw.decoded, ctx.snapshot, ctx.post_stim, ctx.post_golden.outputs, ctx.addr_suffix
        )
        sub = restrict(d, [patch])
        windows = dict(detect=cfg.detect_cycles, persist=cfg.persist_cycles)
        *kept, stop_part = _verdict_arrays(
            sub.simulator(ctx.snapshot, companion=True), bench, sub, **windows
        )
        *ref, stop_full = _verdict_arrays(
            BatchSimulator(d, [patch], initial_values=ctx.snapshot, companion=True),
            bench,
            **windows,
        )
        for x, y in zip(kept, ref):
            np.testing.assert_array_equal(x, y)
        assert stop_part[0] + 1 == stop_full[0]


# -- the closure and restriction rules ------------------------------------------


def _dangling():
    """``q = FF(y)``, ``y = a ^ b`` observed; ``c -> d -> e`` dangling.

    Nodes: a=2, b=3, y=4, q=5, c=6, d=7, e=8; LUT rows y=0, c=1, d=2, e=3.
    """
    nl = Netlist("dangling")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_lut("y", LUT_XOR2, ["a", "b"])
    nl.add_ff("q", "y")
    nl.add_lut("c", LUT_BUF, ["b"])
    nl.add_lut("d", LUT_BUF, ["c"])
    nl.add_lut("e", LUT_XOR2, ["d", "a"])
    nl.set_outputs(["q"])
    return compile_netlist(nl)


def _reference_closure(design, patches) -> np.ndarray:
    """Plain depth-first closure over golden and patch edges."""
    extra: dict[int, list[int]] = {}
    stack = [int(n) for n in design.output_nodes]
    for p in patches:
        for row, _, node in p.lut_inputs:
            extra.setdefault(int(design.lut_nodes[row]), []).append(int(node))
        for row, f, value in p.ff_fields:
            if f in (FFField.D, FFField.CE, FFField.SR):
                extra.setdefault(int(design.ff_nodes[row]), []).append(int(value))
        stack.extend(int(node) for _, node in p.outputs)
    lut_row = {int(n): r for r, n in enumerate(design.lut_nodes)}
    ff_row = {int(n): r for r, n in enumerate(design.ff_nodes)}
    mask = np.zeros(design.n_nodes, dtype=bool)
    while stack:
        n = stack.pop()
        if mask[n]:
            continue
        mask[n] = True
        if n in lut_row:
            stack.extend(int(s) for s in design.lut_inputs[lut_row[n]])
        elif n in ff_row:
            r = ff_row[n]
            stack.extend(int(s) for s in (design.ff_d[r], design.ff_ce[r], design.ff_sr[r]))
        stack.extend(extra.get(n, ()))
    return mask


def _run_both(design, patches, stim):
    sub = restrict(design, patches)
    sub.design.validate()
    part = sub.simulator().run(stim)
    full = BatchSimulator(design, patches).run(stim)
    np.testing.assert_array_equal(part, full)
    return sub


class TestClosureRules:
    STIM = np.random.default_rng(0).integers(0, 2, (12, 2)).astype(np.uint8)

    def test_golden_cone(self):
        d = _dangling()
        assert np.flatnonzero(output_cone(d)).tolist() == [0, 1, 2, 3, 4, 5]

    def test_patch_edge_pulls_in_the_whole_fan_in_cone(self):
        d = _dangling()
        # y's pin 0 now reads e: e, d and c — and their inputs — join.
        patch = Patch(lut_inputs=[(0, 0, 8)])
        mask = closure(d, [patch])
        assert mask[[6, 7, 8]].all()
        sub = _run_both(d, [patch], self.STIM)
        assert sub.lut_rows.tolist() == [0, 1, 2, 3]

    def test_patch_edge_on_a_joining_node_is_followed(self):
        d = _dangling()
        # y reads d (joins through the first patch), and d's pin 0 is
        # patched to e: the second edge's target joins only after the
        # first step, and its source must follow.
        patch = Patch(lut_inputs=[(0, 0, 7), (2, 0, 3)])
        other = Patch(lut_inputs=[(2, 1, 8)])
        mask = closure(d, [patch, other])
        assert mask[8]
        np.testing.assert_array_equal(mask, _reference_closure(d, [patch, other]))
        _run_both(d, [patch, other], self.STIM)

    def test_output_rebind_to_out_of_cone_node_is_kept(self):
        d = _dangling()
        sub = _run_both(d, [Patch(outputs=[(0, 7)])], self.STIM)
        assert closure(d, [Patch(outputs=[(0, 7)])])[[6, 7]].all()
        assert sub.nodes[sub.patches[0].outputs[0][1]] == 7

    def test_entries_outside_the_closure_are_dropped(self):
        d = _dangling()
        table = np.zeros(16, dtype=np.uint8)
        patch = Patch(lut_tables=[(3, table), (0, table)], lut_inputs=[(2, 0, 2)])
        sub = restrict(d, [patch])
        assert sub.lut_rows.tolist() == [0]
        assert [r for r, _ in sub.patches[0].lut_tables] == [0]
        assert sub.patches[0].lut_inputs == []

    def test_const_patch_outside_the_closure_is_dropped(self, mult_hw):
        d = mult_hw.decoded.design
        outside = d.half_latch_nodes[~output_cone(d)[d.half_latch_nodes]]
        inside = d.half_latch_nodes[output_cone(d)[d.half_latch_nodes]]
        patch = Patch(consts=[(int(outside[0]), 0), (int(inside[0]), 0)])
        sub = restrict(d, [patch])
        assert [sub.nodes[n] for n, _ in sub.patches[0].consts] == [int(inside[0])]

    def test_closure_matches_depth_first_reference(self, mult_hw):
        dec = mult_hw.decoded
        rng = np.random.default_rng(5)
        live = np.flatnonzero(dec.live_bits)
        patches = [dec.patch_for_bit(int(b)) for b in rng.choice(live, 64, replace=False)]
        patches = [p for p in patches if p is not None]
        for k in (1, 8, len(patches)):
            np.testing.assert_array_equal(
                closure(dec.design, patches[:k]), _reference_closure(dec.design, patches[:k])
            )
        np.testing.assert_array_equal(output_cone(dec.design), _reference_closure(dec.design, []))

    @pytest.mark.parametrize("field, kw, bad", _BAD_FIELDS + [
        ("lut_tables row", "lut_tables", lambda d: [(-1, np.zeros(16, np.uint8))]),
        ("ff_fields row", "ff_fields", lambda d: [(-1, FFField.D, 0)]),
        ("consts node", "consts", lambda d: [(-1, 0)]),
    ])
    def test_bad_entries_raise_before_remapping(self, field, kw, bad):
        """Checked against the full design: row -1 is the dangling row
        ``e``, which the closure would otherwise drop unnoticed."""
        d = _dangling()
        with pytest.raises(NetlistError, match=field):
            restrict(d, [Patch(), Patch(**{kw: bad(d)})])

    def test_const_patch_on_a_dropped_non_constant_node_raises(self):
        d = _dangling()
        assert d.node_kind[8] == NodeKind.LUT
        with pytest.raises(NetlistError, match="non-constant node 8"):
            restrict(d, [Patch(consts=[(8, 0)])])


class TestSettleCount:
    def test_violation_outside_the_closure_keeps_full_design_settle(self):
        d = _dangling()
        # c (row 1) reads d, computed at a later level: one violation,
        # entirely outside the closure.
        patch = Patch(lut_inputs=[(1, 0, 7)])
        sub = restrict(d, [patch])
        assert sub.patches[0].is_empty()
        assert sub.settle_passes == 2 == BatchSimulator(d, [patch]).settle_passes
        sim = sub.simulator()
        assert sim.settle_passes == 2 and sim.schedule_violations_uncapped == 1

    def _deep_rewire(self, d):
        """SETTLE_CAP + 1 operands of the lowest-level cone LUT rewired
        onto other cone LUTs, all evaluated at the same or a later level."""
        cone = output_cone(d)
        target, *later = [
            int(r) for r in np.argsort(d.level_of_row, kind="stable") if cone[d.lut_nodes[r]]
        ]
        sources = [int(d.lut_nodes[r]) for r in later[: SETTLE_CAP + 1]]
        return Patch(lut_inputs=[(target, pin, node) for pin, node in enumerate(sources)])

    def test_cap_warning_through_simulate_batch(self, mult_hw):
        cfg = CampaignConfig(warmup_cycles=8, detect_cycles=16, persist_cycles=8)
        ctx = build_context(mult_hw, cfg)
        patch = self._deep_rewire(ctx.design)
        with pytest.warns(RuntimeWarning, match="settle-pass cap"):
            simulate_batch(cfg, ctx, [(0, patch)])

    def test_cap_warning_through_bist_observe_batch(self):
        model = BistCoverageModel("S8", (), 2, 16)
        ctx = model.build_context()
        patch = self._deep_rewire(ctx[0][0].decoded.design)
        with pytest.warns(RuntimeWarning, match="settle-pass cap"):
            model.observe_batch(ctx, [(0, (patch, Patch()))])


def test_design_pickle_ignores_derived_caches(mult_hw):
    """A design's pickle is a content key (the golden-pack store hashes
    it): computing a cached view must not change it."""
    d = mult_hw.decoded.design
    before = pickle.dumps(d)
    d.level_of_row, d.row_of_lut_node, d.fanin, output_cone(d)
    assert pickle.dumps(d) == before
