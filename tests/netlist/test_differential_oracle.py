"""Differential test: BatchSimulator vs the naive pure-Python oracle.

Each case builds a small random netlist plus random fault patches, runs
the optimised batch kernel and the reference simulator
(:mod:`tests.utils.oracle`) over the same stimulus, and requires
bit-for-bit identical outputs *and* node state.  Repair, mid-run
snapshot starts and retire-compaction are exercised the same way, so
every semantic path a campaign touches is cross-checked against an
implementation that shares no code with the kernel.

The suites total 230 randomized cases and run in a few seconds; any
kernel "optimisation" that changes semantics fails here with the seed
that reproduces it.

Every case is parametrized over the kernel paths (``sim_class`` in
``tests/netlist/conftest.py``): the reference kernel's compiled step,
its numpy body, and the uint64 bit-plane kernel, pinning all of them to
the same oracle bytes.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.netlist.simulator import BatchSimulator
from tests.utils.oracle import OracleSimulator, random_compiled_design, random_patch


#: seeds of the plain and compaction suites (the coverage guard reads them)
PLAIN_SEEDS = range(150)
COMPACT_SEEDS = range(3000, 3030)


def _case(seed: int, max_cycles: int = 16):
    """Random (design, patches, stimulus) for one differential case."""
    rng = np.random.default_rng(seed)
    design = random_compiled_design(rng)
    n_machines = int(rng.integers(1, 5))
    patches = []
    for _ in range(n_machines):
        # Some machines stay golden — the kernel special-cases them.
        patches.append(random_patch(rng, design) if rng.random() < 0.8 else None)
    from repro.netlist.compiled import Patch

    patches = [p if p is not None else Patch() for p in patches]
    cycles = int(rng.integers(1, max_cycles + 1))
    stimulus = rng.integers(0, 2, size=(cycles, design.n_inputs)).astype(np.uint8)
    return rng, design, patches, stimulus


def _build_pair(design, patches, companion=False, initial_values=None,
                sim_class=BatchSimulator):
    """Backend simulator + oracle with matching settle passes."""
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


class TestDifferentialCompact:
    """Retire-compaction: surviving machines keep exact trajectories."""

    @pytest.mark.parametrize("seed", COMPACT_SEEDS)
    def test_compact_mid_run_matches(self, seed, sim_class):
        rng, design, patches, stimulus = _case(seed)
        sim, oracle = _build_pair(design, patches, sim_class=sim_class)
        half = max(1, len(stimulus) // 2)
        _assert_identical(sim, oracle, stimulus[:half])
        n_keep = int(rng.integers(1, sim.B + 1))
        keep = np.sort(rng.choice(sim.B, size=n_keep, replace=False))
        sim.compact(keep)
        oracle.compact(keep.tolist())
        assert sim.batch_slots.tolist() == oracle.batch_slots
        _assert_identical(sim, oracle, stimulus[half:] if half < len(stimulus) else stimulus)


class TestOracleCoverage:
    """The random cases above reach the kernel's harder paths.

    Pins that the plain suite runs batches with ``settle_passes > 1``
    and that the compaction suite really drops machines from such a
    batch, so a change to the case generators cannot silently stop
    exercising the settle loop or the rebuilt gather caches.
    """

    @staticmethod
    def _settle_passes(design, patches):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return BatchSimulator(design, patches).settle_passes

    def test_plain_suite_covers_multi_pass_settle(self):
        passes = [self._settle_passes(*_case(seed)[1:3]) for seed in PLAIN_SEEDS]
        assert sum(p > 1 for p in passes) >= 10

    def test_compact_suite_covers_compacted_multi_pass_batches(self):
        hits = 0
        for seed in COMPACT_SEEDS:
            rng, design, patches, _ = _case(seed)
            # the same draw test_compact_mid_run_matches makes
            n_keep = int(rng.integers(1, len(patches) + 1))
            if n_keep < len(patches) and self._settle_passes(design, patches) > 1:
                hits += 1
        assert hits >= 2
