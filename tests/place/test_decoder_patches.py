"""Soundness of the incremental fault decoder.

The campaign engine relies on :meth:`DecodedDesign.patch_for_bit` being
behaviourally equivalent to flipping the bit and re-decoding the whole
device.  These tests check that equivalence output-for-output over a
deliberate sample of resource kinds, plus the documented exceptions
(FF INIT bits are reported as no-ops because the injection protocol
never resets).
"""

import numpy as np
import pytest

from repro.fpga.resources import (
    CTRL_CE,
    FF_BYPASS,
    FF_INIT,
    Direction,
    ResourceKind,
    ctrl_mux_offset,
    ff_config_offset,
    imux_offset,
    lut_content_offset,
    output_mux_offset,
    pip_drive_offset,
    pip_straight_offset,
)
from repro.netlist import BatchSimulator
from repro.place.decoder import decode_bitstream
from tests.utils.goldens import assert_golden, patch_case_sha, patch_cases

CYCLES = 48


def _trace_with_patch(hw, patch, stim):
    sim = BatchSimulator(hw.decoded.design, [patch] if patch else None)
    return sim.run(stim)[:, 0, :]


def _trace_full_redecode(hw, linear_bit, stim):
    corrupted = hw.bitstream.copy()
    corrupted.flip_bit(linear_bit)
    decoded = decode_bitstream(hw.device, corrupted, hw.io)
    return BatchSimulator.golden_trace(decoded.design, stim).outputs


def _assert_patch_sound(hw, linear_bit, stim):
    patch = hw.decoded.patch_for_bit(linear_bit)
    incremental = _trace_with_patch(hw, patch, stim)
    full = _trace_full_redecode(hw, linear_bit, stim)
    assert np.array_equal(incremental, full), f"bit {linear_bit}"


def _used_clb(hw):
    """A CLB hosting used logic."""
    return next(iter(hw.placement.used_clbs))


def _some_used_lut(hw):
    name, site = next(iter(hw.placement.lut_site.items()))
    return site


class TestPatchEquivalence:
    def test_lut_content_bits(self, mult_hw, mult_spec):
        stim = mult_spec.stimulus(CYCLES, 0)
        site = _some_used_lut(mult_hw)
        for entry in (0, 7, 15):
            bit = mult_hw.device.clb_bit_linear(
                site.row, site.col, lut_content_offset(site.pos, entry)
            )
            _assert_patch_sound(mult_hw, bit, stim)

    def test_imux_bits(self, mult_hw, mult_spec):
        stim = mult_spec.stimulus(CYCLES, 0)
        site = _some_used_lut(mult_hw)
        for pin in range(4):
            for fbit in (0, 3, 6):
                bit = mult_hw.device.clb_bit_linear(
                    site.row, site.col, imux_offset(site.pos, pin, fbit)
                )
                _assert_patch_sound(mult_hw, bit, stim)

    def test_ff_bypass_bit(self, lfsr_hw, lfsr_spec):
        stim = lfsr_spec.stimulus(CYCLES, 0)
        name, site = next(iter(lfsr_hw.placement.ff_site.items()))
        bit = lfsr_hw.device.clb_bit_linear(
            site.row, site.col, ff_config_offset(site.pos, FF_BYPASS)
        )
        _assert_patch_sound(lfsr_hw, bit, stim)

    def test_ctrl_ce_bits(self, lfsr_hw, lfsr_spec):
        stim = lfsr_spec.stimulus(CYCLES, 0)
        name, site = next(iter(lfsr_hw.placement.ff_site.items()))
        for fbit in (0, 2, 5):
            bit = lfsr_hw.device.clb_bit_linear(
                site.row,
                site.col,
                ctrl_mux_offset(site.slice_index, CTRL_CE, fbit),
            )
            _assert_patch_sound(lfsr_hw, bit, stim)

    def test_output_mux_bits(self, mult_hw, mult_spec):
        stim = mult_spec.stimulus(CYCLES, 0)
        (r, c, port), _sig = next(iter(mult_hw.routed.port_select.items()))
        for fbit in range(0, 8, 3):
            bit = mult_hw.device.clb_bit_linear(r, c, output_mux_offset(port, fbit))
            _assert_patch_sound(mult_hw, bit, stim)

    def test_drive_pip_bits(self, mult_hw, mult_spec):
        stim = mult_spec.stimulus(CYCLES, 0)
        pips = sorted(mult_hw.routed.drive_pips)[:3]
        for (r, c, d, w) in pips:
            bit = mult_hw.device.clb_bit_linear(
                r, c, pip_drive_offset(Direction(d), w)
            )
            _assert_patch_sound(mult_hw, bit, stim)

    def test_straight_pip_bits(self, mult_hw, mult_spec):
        stim = mult_spec.stimulus(CYCLES, 0)
        pips = sorted(mult_hw.routed.straight_pips)[:3]
        for (r, c, d_in, w) in pips:
            bit = mult_hw.device.clb_bit_linear(
                r, c, pip_straight_offset(Direction(d_in), w)
            )
            _assert_patch_sound(mult_hw, bit, stim)

    def test_random_sample_across_device(self, counter_hw, counter_spec):
        """Random bits anywhere (mostly unused fabric): the incremental
        path must agree with full re-decode everywhere, except FF INIT
        bits whose divergence is the documented no-reset protocol."""
        rng = np.random.default_rng(5)
        stim = counter_spec.stimulus(CYCLES, 0)
        checked = 0
        for bit in rng.integers(0, counter_hw.device.block0_bits, size=40):
            bit = int(bit)
            frame, off = counter_hw.bitstream.locate(bit)
            loc = counter_hw.device.classify_bit(frame, off)
            if loc.kind is ResourceKind.FF_CONFIG and loc.detail[1] == FF_INIT:
                continue
            _assert_patch_sound(counter_hw, bit, stim)
            checked += 1
        assert checked > 20


class TestPatchProperties:
    def test_init_bits_reported_noop(self, counter_hw):
        name, site = next(iter(counter_hw.placement.ff_site.items()))
        bit = counter_hw.device.clb_bit_linear(
            site.row, site.col, ff_config_offset(site.pos, FF_INIT)
        )
        assert counter_hw.decoded.patch_for_bit(bit) is None

    def test_golden_bits_untouched_after_patch(self, mult_hw):
        before = mult_hw.bitstream.bits.copy()
        for bit in range(0, mult_hw.device.block0_bits, 9973):
            mult_hw.decoded.patch_for_bit(bit)
        assert np.array_equal(mult_hw.bitstream.bits, before)

    def test_unused_fabric_mostly_skipped(self, mult_hw):
        """Bits in CLBs far from the design must decode to None."""
        dev = mult_hw.device
        used = mult_hw.placement.used_clbs
        free = next(
            (r, c)
            for r in range(dev.rows)
            for c in range(dev.cols)
            if (r, c) not in used and all(abs(c - uc) > 2 for _, uc in used)
        )
        n_patches = 0
        for intra in range(0, 864, 5):
            bit = dev.clb_bit_linear(free[0], free[1], intra)
            if mult_hw.decoded.patch_for_bit(bit) is not None:
                n_patches += 1
        assert n_patches == 0

    def test_bram_and_overhead_bits_skipped(self, mult_hw):
        geo = mult_hw.device.geometry
        # Clock column bit.
        assert mult_hw.decoded.patch_for_bit(5) is None
        # BRAM content bit.
        frame, off = geo.bram_content_bit(0, 0, 17)
        lin = geo.frame_offset(frame) + off
        assert mult_hw.decoded.patch_for_bit(lin) is None

    def test_relevance_filter_consistent(self, mult_hw):
        """A relevant patch must reference at least one cone node."""
        d = mult_hw.decoded
        hits = 0
        for bit in range(0, mult_hw.device.block0_bits, 499):
            p = d.patch_for_bit(bit)
            if p is not None and d.patch_is_relevant(p):
                hits += 1
        assert hits > 0


class TestPatchGoldens:
    """The patch bytes are pinned: every ``patch_for_bit`` result, entry
    order and spare-row choice included, over every bit of MULT4/S8 and
    over the ``seu-serial`` candidate set (MULT6/S12, stride 3)."""

    @pytest.mark.parametrize("name", sorted(patch_cases()))
    def test_patch_digest_pinned(self, name):
        assert_golden(name, patch_case_sha(name))
