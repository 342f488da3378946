"""Differential test: BatchSimulator vs the naive pure-Python oracle.

Each case builds a small random netlist plus random fault patches, runs
the optimised batch kernel and the reference simulator
(:mod:`tests.utils.oracle`) over the same stimulus, and requires
bit-for-bit identical outputs *and* node state.  Repair and mid-run
snapshot starts are exercised the same way, so every semantic path a
campaign touches is cross-checked against an implementation that shares
no code with the kernel.  The verdict suites run the whole
detect/repair/persist protocol (:meth:`BatchSimulator.run_verdicts`),
with and without fault dropping, against the oracle's own protocol.

The suites total 380 randomized cases and run in a few seconds; any
kernel "optimisation" that changes semantics fails here with the seed
that reproduces it.

Every case is parametrized over the kernel paths (``sim_class`` in
``tests/netlist/conftest.py``): the compiled step and its numpy body,
pinning both to the same oracle bytes.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from repro.netlist.compiled import Patch
from repro.netlist.simulator import KERNEL_COUNTERS, BatchSimulator
from tests.utils.oracle import OracleSimulator, random_compiled_design, random_patch


#: seeds of the plain and verdict suites (the coverage guards read them)
PLAIN_SEEDS = range(150)
VERDICT_SEEDS = range(4000, 4150)
RETIRE_SEEDS = range(5000, 5030)


def _case(seed: int, max_cycles: int = 16):
    """Random (design, patches, stimulus) for one differential case."""
    rng = np.random.default_rng(seed)
    design = random_compiled_design(rng)
    n_machines = int(rng.integers(1, 5))
    patches = []
    for _ in range(n_machines):
        # Some machines stay golden — the kernel special-cases them.
        patches.append(random_patch(rng, design) if rng.random() < 0.8 else None)
    patches = [p if p is not None else Patch() for p in patches]
    cycles = int(rng.integers(1, max_cycles + 1))
    stimulus = rng.integers(0, 2, size=(cycles, design.n_inputs)).astype(np.uint8)
    return rng, design, patches, stimulus


def _build_pair(design, patches, companion=False, initial_values=None,
                sim_class=BatchSimulator):
    """Kernel simulator + oracle with matching settle passes."""
    with warnings.catch_warnings():
        # Schedule-violating rewires past the settle cap warn; the cap
        # itself is deterministic, so the oracle just mirrors it.
        warnings.simplefilter("ignore", RuntimeWarning)
        sim = sim_class(
            design, patches, companion=companion, initial_values=initial_values
        )
    oracle = OracleSimulator(
        design,
        patches,
        settle_passes=sim.settle_passes,
        companion=companion,
        initial_values=initial_values,
    )
    return sim, oracle


def _assert_identical(sim, oracle, stimulus):
    got = sim.run(stimulus)
    want = oracle.run(stimulus)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(sim.values, oracle.values_array())


class TestDifferentialPlain:
    """Straight runs: random designs, patches, stimulus."""

    @pytest.mark.parametrize("seed", PLAIN_SEEDS)
    def test_outputs_and_state_match(self, seed, sim_class):
        _, design, patches, stimulus = _case(seed)
        sim, oracle = _build_pair(
            design, patches, companion=(seed % 5 == 0), sim_class=sim_class
        )
        _assert_identical(sim, oracle, stimulus)


class TestDifferentialSnapshotStart:
    """Mid-run injection: both start from the same golden snapshot."""

    @pytest.mark.parametrize("seed", range(1000, 1020))
    def test_snapshot_start_matches(self, seed, sim_class):
        rng, design, patches, stimulus = _case(seed)
        warm = rng.integers(0, 2, size=(4, design.n_inputs)).astype(np.uint8)
        golden = sim_class(design)
        golden.run(warm)
        snapshot = golden.state_snapshot()
        sim, oracle = _build_pair(
            design, patches, initial_values=snapshot, sim_class=sim_class
        )
        _assert_identical(sim, oracle, stimulus)


class TestDifferentialRepair:
    """Scrub semantics: repair a machine mid-run, keep flying."""

    @pytest.mark.parametrize("seed", range(2000, 2030))
    def test_repair_mid_run_matches(self, seed, sim_class):
        rng, design, patches, stimulus = _case(seed)
        sim, oracle = _build_pair(design, patches, sim_class=sim_class)
        half = max(1, len(stimulus) // 2)
        _assert_identical(sim, oracle, stimulus[:half])
        m = int(rng.integers(sim.B))
        sim.repair_machine(m)
        oracle.repair_machine(m)
        np.testing.assert_array_equal(sim.values, oracle.values_array())
        _assert_identical(sim, oracle, stimulus[half:] if half < len(stimulus) else stimulus)


def _verdict_case(seed: int):
    """Random (design, patches, stimulus, detect, persist, converge)."""
    rng = np.random.default_rng(seed)
    design = random_compiled_design(rng)
    patches = [
        random_patch(rng, design) if rng.random() < 0.8 else Patch()
        for _ in range(int(rng.integers(1, 7)))
    ]
    cycles = int(rng.integers(8, 41))
    stimulus = rng.integers(0, 2, size=(cycles, design.n_inputs)).astype(np.uint8)
    detect = int(rng.integers(1, cycles + 1))
    converge = int(rng.integers(1, 5))
    return design, patches, stimulus, detect, cycles - detect, converge


def _verdict_pair(seed: int, sim_class, retire: bool):
    """(kernel verdicts as tuples, oracle verdicts, counter delta) of one case."""
    design, patches, stimulus, detect, persist, converge = _verdict_case(seed)
    golden = BatchSimulator.golden_trace(design, stimulus, record_addr_rows=retire)
    want_golden = OracleSimulator(design).run(stimulus)[:, 0, :]
    np.testing.assert_array_equal(golden.outputs, want_golden)
    sim, oracle = _build_pair(design, patches, companion=retire, sim_class=sim_class)
    suffix = None
    if retire:
        # Row t covers every LUT address golden reads from cycle t on.
        suffix = np.zeros((len(stimulus) + 1, design.n_luts), dtype=np.uint16)
        suffix[:-1] = np.bitwise_or.accumulate(golden.addr_rows[::-1], axis=0)[::-1]
    before = KERNEL_COUNTERS.snapshot()
    verdicts = sim.run_verdicts(
        stimulus, golden, detect, persist, converge, retire=retire, addr_suffix=suffix
    )
    delta = KERNEL_COUNTERS.delta(before)
    got = [
        (v.failed, v.first_error_cycle, v.persistent, v.recovered_cycle)
        for v in verdicts
    ]
    want = oracle.run_verdicts(stimulus, want_golden, detect, persist, converge)
    return got, want[: len(patches)], delta


class TestDifferentialVerdicts:
    """The detect/repair/persist protocol, verdict for verdict."""

    @pytest.mark.parametrize("seed", VERDICT_SEEDS)
    def test_verdicts_match(self, seed, sim_class):
        got, want, _ = _verdict_pair(seed, sim_class, retire=False)
        assert got == want


class TestDifferentialRetire:
    """Fault dropping seals machines early without changing a verdict."""

    @pytest.mark.parametrize("seed", RETIRE_SEEDS)
    def test_retired_verdicts_match(self, seed, sim_class):
        got, want, _ = _verdict_pair(seed, sim_class, retire=True)
        assert got == want


class TestOracleCoverage:
    """The random cases above reach the kernel's harder paths.

    Pins that the plain suite runs batches with ``settle_passes > 1``,
    so a change to the case generators cannot silently stop exercising
    the settle loop.
    """

    @staticmethod
    def _settle_passes(design, patches):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return BatchSimulator(design, patches).settle_passes

    def test_plain_suite_covers_multi_pass_settle(self):
        passes = [self._settle_passes(*_case(seed)[1:3]) for seed in PLAIN_SEEDS]
        assert sum(p > 1 for p in passes) >= 10

    def test_verdict_suite_covers_every_outcome(self):
        outcomes = Counter()
        for seed in VERDICT_SEEDS:
            design, patches, stimulus, detect, persist, converge = _verdict_case(seed)
            oracle = OracleSimulator(design, patches)
            golden = OracleSimulator(design).run(stimulus)[:, 0, :]
            for failed, _, persistent, recovered in oracle.run_verdicts(
                stimulus, golden, detect, persist, converge
            ):
                outcomes["persistent" if persistent else
                         "recovered" if recovered >= 0 else
                         "clean" if not failed else "other"] += 1
        assert min(outcomes[k] for k in ("clean", "recovered", "persistent")) >= 10

    def test_retire_suite_seals_machines_early(self):
        sealed = 0
        for seed in RETIRE_SEEDS:
            *_, (retired, _, _) = _verdict_pair(seed, BatchSimulator, retire=True)
            sealed += retired > 0
        assert sealed >= 10
