"""Cross-validation of the campaign's shortcuts against brute force.

The campaign engine skips most bits via structural filters and batches
the rest.  These tests take random bit samples and verify each shortcut
against the expensive ground truth (full re-decode of the corrupted
bitstream, single-machine simulation).
"""

import numpy as np
import pytest

from repro.netlist import BatchSimulator
from repro.place.decoder import decode_bitstream
from repro.seu import CampaignConfig, run_campaign
from repro.seu.campaign import BitVerdict


@pytest.fixture(scope="module")
def cfg():
    return CampaignConfig(detect_cycles=48, persist_cycles=32, warmup_cycles=16)


@pytest.fixture(scope="module")
def sampled(mult_hw, cfg):
    rng = np.random.default_rng(42)
    bits = np.sort(rng.choice(mult_hw.device.block0_bits, size=160, replace=False))
    result = run_campaign(mult_hw, cfg, candidate_bits=bits)
    return bits, result


def _brute_force_differs(hw, bit, cfg) -> bool:
    """Ground truth: does flipping ``bit`` change outputs over the whole
    window, running the corrupted configuration from reset?"""
    stim = hw.spec.stimulus(cfg.total_cycles, cfg.seed)
    golden = BatchSimulator.golden_trace(hw.decoded.design, stim)
    corrupted = hw.bitstream.copy()
    corrupted.flip_bit(int(bit))
    decoded = decode_bitstream(hw.device, corrupted, hw.io)
    trace = BatchSimulator.golden_trace(decoded.design, stim)
    return not np.array_equal(trace.outputs, golden.outputs)


class TestSkipSoundness:
    def test_skipped_bits_never_fail_brute_force(self, mult_hw, cfg, sampled):
        """Every bit the filters dismissed must be harmless under full
        re-decode — the soundness contract of the pre-filters.

        FF INIT bits are exempt: the brute-force path starts from reset
        (where INIT matters) while the injection protocol never resets.
        """
        from repro.fpga.resources import FF_INIT, ResourceKind

        bits, result = sampled
        checked = 0
        for bit in bits:
            v = result.verdicts[int(bit)]
            if v not in (
                BitVerdict.SKIP_STRUCTURAL,
                BitVerdict.SKIP_CONE,
                BitVerdict.SKIP_UNADDRESSED,
            ):
                continue
            frame, off = mult_hw.bitstream.locate(int(bit))
            loc = mult_hw.device.classify_bit(frame, off)
            if loc.kind is ResourceKind.FF_CONFIG and loc.detail[1] == FF_INIT:
                continue
            assert not _brute_force_differs(mult_hw, bit, cfg), (
                f"bit {bit} was skipped ({BitVerdict(v).name}) but brute "
                "force shows an output difference"
            )
            checked += 1
        assert checked > 50

    def test_simulated_failures_reproduce_single_machine(self, mult_hw, cfg, sampled):
        """Bits the campaign called sensitive must fail when re-run one
        at a time through the patch path."""
        bits, result = sampled
        stim = mult_hw.spec.stimulus(cfg.total_cycles, cfg.seed)
        design = mult_hw.decoded.design
        golden = BatchSimulator.golden_trace(design, stim)
        warm = BatchSimulator(design)
        warm.run(stim[: cfg.warmup_cycles])
        snapshot = warm.state_snapshot()
        from repro.netlist.simulator import GoldenTrace

        post = GoldenTrace(
            golden.outputs[cfg.warmup_cycles :], golden.addr_seen, golden.final_state
        )
        n_checked = 0
        for bit in result.sensitive_bits[:25]:
            patch = mult_hw.decoded.patch_for_bit(int(bit))
            assert patch is not None
            sim = BatchSimulator(design, [patch], initial_values=snapshot)
            (v,) = sim.run_verdicts(
                stim[cfg.warmup_cycles :], post, cfg.detect_cycles, cfg.persist_cycles
            )
            assert v.failed, f"bit {bit}"
            n_checked += 1
        assert n_checked > 0

    def test_no_effect_bits_clean_single_machine(self, mult_hw, cfg, sampled):
        bits, result = sampled
        no_effect = [
            int(b) for b in bits if result.verdicts[int(b)] == BitVerdict.NO_EFFECT
        ][:15]
        stim = mult_hw.spec.stimulus(cfg.total_cycles, cfg.seed)
        design = mult_hw.decoded.design
        golden = BatchSimulator.golden_trace(design, stim)
        warm = BatchSimulator(design)
        warm.run(stim[: cfg.warmup_cycles])
        snapshot = warm.state_snapshot()
        from repro.netlist.simulator import GoldenTrace

        post = GoldenTrace(
            golden.outputs[cfg.warmup_cycles :], golden.addr_seen, golden.final_state
        )
        for bit in no_effect:
            patch = mult_hw.decoded.patch_for_bit(bit)
            sim = BatchSimulator(design, [patch], initial_values=snapshot)
            (v,) = sim.run_verdicts(
                stim[cfg.warmup_cycles :], post, cfg.detect_cycles, cfg.persist_cycles
            )
            assert not v.failed, f"bit {bit}"


@pytest.mark.xfail(
    strict=True,
    reason="the unaddressed skip reads golden.addr_seen, captured after the "
    "FF clock with stale operands, not the evaluation-fixpoint addresses "
    "addr_rows holds: MULT4/S8 bit 2157 is skipped but fails alone",
)
def test_every_unaddressed_skip_simulates_to_no_effect(mult_hw):
    """Every live bit the pre-filter settles as ``SKIP_UNADDRESSED`` at
    the CLI's default config must give ``NO_EFFECT`` when simulated alone."""
    from repro.seu.campaign import build_context, classify_candidate, simulate_batch

    cfg = CampaignConfig(detect_cycles=96, persist_cycles=64)
    ctx = build_context(mult_hw, cfg)
    skipped = [
        int(bit)
        for bit in np.flatnonzero(mult_hw.decoded.live_bits)
        if classify_candidate(mult_hw, ctx, int(bit))[0] == BitVerdict.SKIP_UNADDRESSED
    ]
    assert skipped
    wrong = [
        bit
        for bit in skipped
        if simulate_batch(cfg, ctx, [(bit, mult_hw.decoded.patch_for_bit(bit))])
        != [BitVerdict.NO_EFFECT]
    ]
    assert wrong == []
