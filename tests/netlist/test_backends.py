"""The kernel-backend registry and the bit-plane packing contract.

Covers the pieces the differential-oracle parametrization does not:
the ambient selection machinery (env var, context manager), the lane
packing equivalence between the packbits fast path and the
endian-portable path, and word-boundary round trips of
patch/repair/compact at B = 1 / 64 / 65.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.netlist.backends import (
    BACKENDS,
    kernel_backend,
    make_simulator,
    resolve_backend,
    simulator_class,
)
from repro.netlist.backends.bitplane import (
    BitplaneBatchSimulator,
    pack_lanes,
    pack_lanes_portable,
    unpack_lanes,
    unpack_lanes_portable,
)
from repro.netlist.simulator import BatchSimulator
from tests.utils.oracle import random_compiled_design, random_patch


@pytest.fixture(autouse=True)
def _clean_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    yield


class TestRegistry:
    def test_default_is_reference(self):
        assert resolve_backend() == "reference"
        assert simulator_class() is BatchSimulator

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bitplane")
        assert resolve_backend() == "bitplane"
        assert simulator_class() is BitplaneBatchSimulator

    def test_context_manager_scopes_and_exports_env(self):
        with kernel_backend("bitplane"):
            assert resolve_backend() == "bitplane"
            # workers (fork or spawn) inherit the selection via the env
            assert os.environ["REPRO_KERNEL_BACKEND"] == "bitplane"
            with kernel_backend("reference"):
                assert resolve_backend() == "reference"
            assert resolve_backend() == "bitplane"
        assert resolve_backend() == "reference"
        assert "REPRO_KERNEL_BACKEND" not in os.environ

    def test_unknown_backend_rejected(self):
        with pytest.raises(NetlistError, match="unknown kernel backend"):
            with kernel_backend("simd"):
                pass  # pragma: no cover
        monkey_env = dict(os.environ, REPRO_KERNEL_BACKEND="simd")
        with pytest.MonkeyPatch.context() as mp:
            for k, v in monkey_env.items():
                mp.setenv(k, v)
            with pytest.raises(NetlistError, match="unknown kernel backend"):
                resolve_backend()

    def test_make_simulator_uses_selection(self):
        rng = np.random.default_rng(0)
        design = random_compiled_design(rng)
        with kernel_backend("bitplane"):
            assert isinstance(make_simulator(design), BitplaneBatchSimulator)
        assert type(make_simulator(design)) is BatchSimulator

    def test_registry_has_two_backends(self):
        assert BACKENDS == ("reference", "bitplane")
        with pytest.raises(NetlistError, match="unknown kernel backend 'bitplane-jit'"):
            with kernel_backend("bitplane-jit"):
                pass  # pragma: no cover


class TestLanePacking:
    @pytest.mark.parametrize("B", [1, 7, 63, 64, 65, 129, 1024])
    def test_fast_and_portable_paths_agree(self, B):
        rng = np.random.default_rng(B)
        bits = rng.integers(0, 2, size=(B, 37)).astype(np.uint8)
        planes = pack_lanes(bits)
        assert planes.shape == (37, (B + 63) // 64)
        np.testing.assert_array_equal(planes, pack_lanes_portable(bits))
        np.testing.assert_array_equal(unpack_lanes(planes, B), bits)
        np.testing.assert_array_equal(unpack_lanes_portable(planes, B), bits)

    def test_padding_lanes_zeroed_on_pack(self):
        bits = np.ones((65, 3), dtype=np.uint8)
        planes = pack_lanes(bits)
        # lanes 65..127 of the second word must be zero, not garbage
        assert (planes[:, 1] >> np.uint64(1)).max() == 0


def _run_sequence(sim_class, seed, B):
    """One full lifecycle (run, repair, run, compact, run) on a backend."""
    rng = np.random.default_rng(seed)
    design = random_compiled_design(rng)
    patches = [random_patch(rng, design) for _ in range(B)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sim = sim_class(design, patches, companion=True)
    stim = rng.integers(0, 2, size=(6, design.n_inputs)).astype(np.uint8)
    outs = [sim.run(stim).copy()]
    sim.repair_machine(int(rng.integers(B)))
    outs.append(sim.run(stim).copy())
    # always keep the companion (machine B, the last slot)
    keep = np.append(
        np.sort(rng.choice(B, size=max(1, B // 2), replace=False)), B
    )
    sim.compact(keep)
    outs.append(sim.run(stim).copy())
    outs.append(sim.values.copy())
    n_live = sim.B - 1 if sim.companion else sim.B
    outs.append(sim._machines_equal_companion(n_live).copy())
    return outs


class TestBinaryGuard:
    """Every backend rejects non-binary stimulus and snapshots by name.

    A value above 1 would index another LUT's truth-table entry in the
    reference kernel and cannot be packed into a bit-plane lane.
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


class TestWordBoundaryRoundTrips:
    """patch/repair/compact across the uint64 word boundary, vs reference."""

    @pytest.mark.parametrize("B", [1, 64, 65])
    @pytest.mark.parametrize("seed", [11, 12])
    def test_bitplane_matches_reference(self, B, seed):
        ref = _run_sequence(BatchSimulator, seed, B)
        got = _run_sequence(BitplaneBatchSimulator, seed, B)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)
