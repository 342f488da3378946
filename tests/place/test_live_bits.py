"""The golden live-bit mask that settles inert SEU candidates.

``DecodedDesign.live_bits`` replaces a per-bit screen (locate, classify,
cone and consumer checks) with one array lookup.  These tests pin it to
that screen bit for bit, check that what it rejects really cannot reach
the outputs, check that patch computation leaves the golden state it is
built from untouched, and count per-bit decodes (and ``classify_bit``
calls, which the decode tables replace) so a fall-back to per-bit
classification fails deterministically rather than only showing up as
a slower sweep.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.designs import array_multiplier
from repro.fpga import VirtexDevice
from repro.fpga.resources import FF_INIT, FF_RESERVED, ResourceKind, classify_intra
from repro.place import implement
from repro.place.decoder import DecodedDesign
from repro.seu import CampaignConfig, run_campaign
from tests.utils.live_bits_reference import PATCHED_KINDS, reference_live_bits


#: Kinds the mask settles by output-cone membership (FF config too, bar
#: INIT and reserved).
_CONE_SCREENED = (
    ResourceKind.LUT_CONTENT,
    ResourceKind.LUT_INPUT_MUX,
    ResourceKind.CTRL_MUX,
)


@pytest.fixture(scope="module")
def mult6_hw(s12):
    return implement(array_multiplier(6), s12)


class TestMatchesPerBitScreen:
    def test_mult4_s8_every_bit(self, mult_hw):
        live = mult_hw.decoded.live_bits
        assert live.shape == mult_hw.bitstream.bits.shape
        assert np.array_equal(live, reference_live_bits(mult_hw.decoded))

    def test_mult6_s12_every_bit(self, mult6_hw):
        live = mult6_hw.decoded.live_bits
        assert np.array_equal(live, reference_live_bits(mult6_hw.decoded))
        # Only a few percent of the configuration can matter.
        assert 0 < live.sum() < 0.05 * live.size

    def test_built_once(self, mult_hw):
        assert mult_hw.decoded.live_bits is mult_hw.decoded.live_bits


class TestSoundness:
    def test_non_live_clb_bits_never_reach_the_outputs(self, mult_hw):
        """Flip every non-live bit of a patched CLB kind and compute its
        patch the long way.  The consumer screens (output mux, PIPs) and
        the FF INIT/reserved rule must give an empty patch; the cone
        screens may give a patch, but one that touches no cone node."""
        dec = mult_hw.decoded
        clb_live = dec.live_bits[dec._clb_matrix]
        bits = dec.bits.bits
        checked = 0
        for row, col, intra in np.argwhere(~clb_live).tolist():
            kind, detail = classify_intra(intra)
            if kind not in PATCHED_KINDS:
                continue
            linear = int(dec._clb_matrix[row, col, intra])
            bits[linear] ^= 1
            try:
                patch = dec._patch_clb_bit(row, col, kind, detail)
            finally:
                bits[linear] ^= 1
            cone_screened = kind in _CONE_SCREENED or (
                kind is ResourceKind.FF_CONFIG and detail[1] not in (FF_INIT, FF_RESERVED)
            )
            if cone_screened:
                assert patch is None or not dec.patch_is_relevant(patch), (
                    row, col, kind, detail,
                )
            else:
                assert patch is None, (row, col, kind, detail)
            checked += 1
        assert checked > 50_000


class TestGoldenStateFrozen:
    def test_patching_every_candidate_leaves_golden_state_alone(self, mult_hw):
        dec = mult_hw.decoded
        frozen = {
            name: copy.deepcopy(getattr(dec, name))
            for name in ("wire_value", "wire_consumers", "port_value", "halflatch_node")
        }
        bits_before = dec.bits.bits.copy()
        n_patches = 0
        for bit in range(mult_hw.device.block0_bits):
            n_patches += dec.patch_for_bit(bit) is not None
        assert n_patches > 0
        for name, before in frozen.items():
            assert getattr(dec, name) == before, name
        assert np.array_equal(dec.bits.bits, bits_before)


class TestClassificationCount:
    def test_campaign_classifies_only_live_candidates(self, mult_spec, s8, monkeypatch):
        """A MULT4/S8 stride-7 campaign decodes exactly the live candidates,
        each once: every other candidate is settled by the mask.  The
        decode tables locate a live bit, so the prefilter never calls
        ``classify_bit``; only the result's per-kind breakdown does, once
        per sensitive bit."""
        hw = implement(mult_spec, s8)
        config = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)
        candidates = np.arange(0, hw.device.block0_bits, config.stride)
        n_live = int(hw.decoded.live_bits[candidates].sum())

        calls = dict(classify=0, decode=0)
        classify_bit = VirtexDevice.classify_bit
        patch_clb_bit = DecodedDesign._patch_clb_bit

        def counting_classify(self, frame_index, bit):
            calls["classify"] += 1
            return classify_bit(self, frame_index, bit)

        def counting_decode(self, *args):
            calls["decode"] += 1
            return patch_clb_bit(self, *args)

        monkeypatch.setattr(VirtexDevice, "classify_bit", counting_classify)
        monkeypatch.setattr(DecodedDesign, "_patch_clb_bit", counting_decode)
        result = run_campaign(hw, config)
        assert result.n_candidates == candidates.size
        assert 0 < n_live < candidates.size
        assert calls == dict(classify=result.n_failures, decode=n_live)
