import dataclasses

import numpy as np
import pytest

from repro.fpga.resources import ResourceKind
from repro.netlist import BatchSimulator
from repro.seu import CampaignConfig, run_campaign, run_halflatch_campaign
from repro.seu.campaign import BitVerdict, build_context, classify_candidate, simulate_batch


@pytest.fixture(scope="module")
def cfg():
    return CampaignConfig(detect_cycles=64, persist_cycles=48, batch_size=128)


@pytest.fixture(scope="module")
def lfsr_result(lfsr_hw, cfg):
    return run_campaign(lfsr_hw, cfg)


@pytest.fixture(scope="module")
def mult_result(mult_hw, cfg):
    return run_campaign(mult_hw, cfg)


class TestConfigKey:
    """``CampaignConfig.from_key`` inverts ``key`` (a resume reads the
    config back from a checkpoint's model key)."""

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CampaignConfig)])
    def test_round_trip_changes_each_field(self, name):
        base = CampaignConfig()
        value = getattr(base, name)
        changed = dataclasses.replace(
            base, **{name: (not value) if isinstance(value, bool) else value + 3}
        )
        back = CampaignConfig.from_key(changed.key())
        assert back == changed.unbatched()
        # batch_size is in no key; every other field moves the key.
        assert (back == base) == (name == "batch_size")


class TestCampaignBasics:
    def test_candidates_cover_block0(self, lfsr_result, lfsr_hw):
        assert lfsr_result.n_candidates == lfsr_hw.device.block0_bits

    def test_finds_sensitive_bits(self, lfsr_result):
        assert lfsr_result.n_failures > 100

    def test_sensitivity_in_plausible_range(self, lfsr_result):
        assert 0.001 < lfsr_result.sensitivity < 0.10

    def test_verdicts_consistent_with_counts(self, lfsr_result):
        v = lfsr_result.verdicts
        n_fail = int(
            np.count_nonzero(
                (v == BitVerdict.FAIL_TRANSIENT) | (v == BitVerdict.FAIL_PERSISTENT)
            )
        )
        assert n_fail == lfsr_result.n_failures

    def test_most_bits_skipped_without_simulation(self, lfsr_result):
        assert lfsr_result.n_simulated < lfsr_result.n_candidates * 0.05

    def test_summary_readable(self, lfsr_result):
        s = lfsr_result.summary()
        assert "sensitive" in s and "%" in s

    def test_by_kind_totals_match(self, lfsr_result):
        assert sum(lfsr_result.by_kind.values()) == lfsr_result.n_failures

    def test_sensitive_kinds_are_clb_resources(self, lfsr_result):
        for kind in lfsr_result.by_kind:
            assert kind in {
                ResourceKind.LUT_CONTENT,
                ResourceKind.LUT_INPUT_MUX,
                ResourceKind.FF_CONFIG,
                ResourceKind.CTRL_MUX,
                ResourceKind.OUTPUT_MUX,
                ResourceKind.PIP_DRIVE,
                ResourceKind.PIP_STRAIGHT,
                ResourceKind.PIP_TURN,
            }


class TestPersistenceShapes:
    """The paper's central persistence contrast (Table II)."""

    def test_lfsr_mostly_persistent(self, lfsr_result):
        assert lfsr_result.persistence_ratio > 0.6

    def test_feedforward_multiplier_not_persistent(self, mult_result):
        assert mult_result.persistence_ratio < 0.05

    def test_multiplier_denser_than_lfsr_per_area(
        self, lfsr_result, mult_result, lfsr_hw, mult_hw
    ):
        lfsr_norm = lfsr_result.sensitivity / lfsr_hw.utilization
        mult_norm = mult_result.sensitivity / mult_hw.utilization
        assert mult_norm > 1.5 * lfsr_norm


class TestDeterminism:
    def test_same_seed_same_result(self, mult_hw, cfg):
        bits = np.arange(0, mult_hw.device.block0_bits, 97, dtype=np.int64)
        a = run_campaign(mult_hw, cfg, candidate_bits=bits)
        b = run_campaign(mult_hw, cfg, candidate_bits=bits)
        assert np.array_equal(a.verdicts, b.verdicts)

    def test_subset_agrees_with_itself_across_batching(self, mult_hw):
        bits = np.arange(0, mult_hw.device.block0_bits, 211, dtype=np.int64)
        small = CampaignConfig(detect_cycles=64, persist_cycles=48, batch_size=8)
        big = CampaignConfig(detect_cycles=64, persist_cycles=48, batch_size=256)
        a = run_campaign(mult_hw, small, candidate_bits=bits)
        b = run_campaign(mult_hw, big, candidate_bits=bits)
        assert np.array_equal(a.verdicts, b.verdicts)


class TestStride:
    def test_strided_campaign_samples(self, mult_hw):
        cfg = CampaignConfig(detect_cycles=48, persist_cycles=0, classify_persistence=False, stride=10)
        res = run_campaign(mult_hw, cfg)
        assert res.n_candidates == (mult_hw.device.block0_bits + 9) // 10

    def test_no_persistence_mode(self, mult_hw):
        cfg = CampaignConfig(detect_cycles=48, persist_cycles=0, classify_persistence=False, stride=25)
        res = run_campaign(mult_hw, cfg)
        assert res.persistent_bits.size == 0


class TestHalfLatchCampaign:
    def test_lfsr_has_critical_halflatches(self, lfsr_hw, cfg):
        out = run_halflatch_campaign(lfsr_hw, cfg)
        assert len(out) == len(lfsr_hw.decoded.halflatch_node)
        assert sum(out.values()) > 0

    def test_ce_halflatches_dominate_criticality(self, lfsr_hw, cfg):
        """Critical keepers should be the CE keepers of used slices
        (Figure 14), not random fabric keepers."""
        from repro.fpga.halflatch import HalfLatchKind

        out = run_halflatch_campaign(lfsr_hw, cfg)
        decoded = lfsr_hw.decoded
        kinds = {}
        for node, bad in out.items():
            if bad:
                site = decoded.halflatch_site_of_node[node]
                kinds[site.kind] = kinds.get(site.kind, 0) + 1
        assert kinds.get(HalfLatchKind.CTRL, 0) >= max(kinds.values()) / 2

    def test_most_halflatches_harmless(self, lfsr_hw, cfg):
        out = run_halflatch_campaign(lfsr_hw, cfg)
        assert sum(out.values()) / len(out) < 0.10


def _first_survivors(hw, ctx, n: int = 8) -> list:
    """The first ``n`` pre-filter survivors as ``(bit, patch)``."""
    pending = []
    for bit in np.flatnonzero(hw.decoded.live_bits).tolist():
        _, patch = classify_candidate(hw, ctx, bit)
        if patch is not None:
            pending.append((bit, patch))
            if len(pending) == n:
                break
    return pending


class TestOneResetPerBatch:
    """``simulate_batch`` builds a simulator (which resets it) and runs
    the verdict protocol on it; the verdict run must not reset again."""

    CONFIG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)

    def test_simulate_batch_resets_once(self, mult_hw, monkeypatch):
        ctx = build_context(mult_hw, self.CONFIG)
        pending = _first_survivors(mult_hw, ctx)
        resets = [0]
        reset = BatchSimulator.reset

        def counting(self):
            resets[0] += 1
            reset(self)

        monkeypatch.setattr(BatchSimulator, "reset", counting)
        for retire in (False, True):
            resets[0] = 0
            simulate_batch(self.CONFIG, ctx, pending, retire=retire)
            assert resets[0] == 1

    def test_verdicts_after_stepping_still_start_from_reset(self, mult_hw):
        """A simulator that already ran resets before its verdict run, so
        its verdicts equal a fresh simulator's."""
        ctx = build_context(mult_hw, self.CONFIG)
        patches = [patch for _, patch in _first_survivors(mult_hw, ctx)]
        config = self.CONFIG
        args = (ctx.post_stim, ctx.post_golden, config.detect_cycles, config.persist_cycles)

        def fresh():
            return BatchSimulator(ctx.design, patches, initial_values=ctx.snapshot)

        want = fresh().run_verdicts(*args)
        stepped = fresh()
        for row in ctx.post_stim[:5]:
            stepped.step(row)
        assert stepped.run_verdicts(*args) == want
