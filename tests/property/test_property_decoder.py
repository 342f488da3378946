"""Fuzz properties of the bitstream decoder.

The decoder's contract is *totality*: any bit pattern decodes to an
executable machine (that is what makes corrupted configurations
runnable).  These tests throw random and adversarial bitstreams at it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import ConfigBitstream
from repro.fpga import get_device
from repro.netlist import BatchSimulator
from repro.place.configgen import IOBinding
from repro.place.decoder import decode_bitstream
from tests.utils.live_bits_reference import reference_live_bits


@pytest.fixture(scope="module")
def s4dev():
    return get_device("S4")


class TestDecoderTotality:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_bitstreams_decode_and_run(self, s4dev, seed):
        rng = np.random.default_rng(seed)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=4)
        decoded.design.validate()
        sim = BatchSimulator(decoded.design)
        # Runs without exploding; outputs list may be empty (no probes).
        for _ in range(4):
            sim.step(np.zeros(0, dtype=np.uint8))

    def test_all_ones_bitstream(self, s4dev):
        bits = ConfigBitstream(
            s4dev.geometry, np.ones(s4dev.geometry.total_bits, dtype=np.uint8)
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=4)
        decoded.design.validate()
        # All-ones = every PIP on: massive contention and wire loops,
        # still simulable.
        BatchSimulator(decoded.design).step(np.zeros(0, dtype=np.uint8))

    def test_all_zeros_bitstream(self, s4dev):
        bits = ConfigBitstream(s4dev.geometry)
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=4)
        # Everything floats: half-latches everywhere, FFs unclocked.
        assert (decoded.design.ff_clocked == 0).all()
        assert len(decoded.halflatch_node) > 0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 64))
    @settings(max_examples=8, deadline=None)
    def test_random_patches_never_break_batch(self, s4dev, seed, n_bits):
        """patch_for_bit over random bits of a random config: patches
        must always apply cleanly to a batch."""
        rng = np.random.default_rng(seed)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=8)
        patches = []
        for b in rng.integers(0, s4dev.geometry.total_bits, size=n_bits):
            p = decoded.patch_for_bit(int(b))
            if p is not None:
                patches.append(p)
        if patches:
            sim = BatchSimulator(decoded.design, patches)
            sim.step(np.zeros(0, dtype=np.uint8))

    @pytest.mark.timeout(20)
    def test_patch_past_the_spare_rows_stays_fast(self, s4dev):
        """A case the fuzz above can draw: on this random configuration
        bit 20969's rewire yields more shared AND tickets than there are
        spare rows.  Materializing them once the spares run out must not
        re-walk every shared ticket per path (minutes before, now ms)."""
        rng = np.random.default_rng(551886180)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=8)
        patch = decoded.patch_for_bit(20969)
        assert patch is not None
        BatchSimulator(decoded.design, [patch]).step(np.zeros(0, dtype=np.uint8))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_live_bits_match_per_bit_screen(self, s4dev, seed):
        """The golden live-bit mask equals the per-bit screen it replaced
        on arbitrary configurations, not only on router output.  A few
        random output probes give the configuration an output cone."""
        rng = np.random.default_rng(seed)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        probes = [
            (int(rng.integers(s4dev.rows)), int(rng.integers(s4dev.cols)), int(rng.integers(8)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        decoded = decode_bitstream(s4dev, bits, IOBinding(output_probes=probes), n_spare=4)
        assert np.array_equal(decoded.live_bits, reference_live_bits(decoded))
