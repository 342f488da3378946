import numpy as np
import pytest

from repro.engine import merge_sweeps, run_sweep
from repro.errors import CampaignError
from repro.seu import (
    CampaignConfig,
    run_campaign,
    run_multibit_campaign,
)
from repro.seu.campaign import SEUFaultModel, _from_sweep


@pytest.fixture(scope="module")
def cfg():
    return CampaignConfig(detect_cycles=48, persist_cycles=0, classify_persistence=False)


@pytest.fixture(scope="module")
def single(mult_hw, cfg):
    return run_campaign(mult_hw, cfg)


class TestMultiBit:
    def test_k1_matches_single_bit_sensitivity(self, mult_hw, cfg, single):
        res = run_multibit_campaign(
            mult_hw, single.sensitivity, k=1, n_trials=600, config=cfg, seed=2
        )
        assert res.failure_probability == pytest.approx(single.sensitivity, abs=0.01)

    def test_k2_near_independence(self, mult_hw, cfg, single):
        res = run_multibit_campaign(
            mult_hw, single.sensitivity, k=2, n_trials=600, config=cfg, seed=3
        )
        # Random bit pairs rarely interact: the independence prediction
        # should hold within a couple of percentage points.
        assert abs(res.interaction_excess) < 0.02
        assert res.failure_probability > single.sensitivity * 1.3

    def test_failure_probability_monotone_in_k(self, mult_hw, cfg, single):
        probs = [
            run_multibit_campaign(
                mult_hw, single.sensitivity, k=k, n_trials=400, config=cfg, seed=4
            ).failure_probability
            for k in (1, 4, 16)
        ]
        assert probs[0] < probs[1] < probs[2]

    def test_k_validated(self, mult_hw, single, cfg):
        with pytest.raises(CampaignError):
            run_multibit_campaign(mult_hw, single.sensitivity, k=0, config=cfg)

    def test_summary(self, mult_hw, cfg, single):
        res = run_multibit_campaign(
            mult_hw, single.sensitivity, k=2, n_trials=64, config=cfg, seed=5
        )
        assert "independence" in res.summary()


def seu_sweep(hw, cfg, bits):
    """The engine sweep of an SEU campaign over ``bits``."""
    return run_sweep(SEUFaultModel(hw.spec, hw.device.name, cfg), candidates=bits)


class TestMerge:
    """Split SEU sweeps merge (:func:`merge_sweeps`) to the whole campaign."""

    def test_split_merge_equals_whole(self, mult_hw, cfg, single):
        n = mult_hw.device.block0_bits
        bits = np.arange(0, n, dtype=np.int64)
        a = seu_sweep(mult_hw, cfg, bits[: n // 2])
        b = seu_sweep(mult_hw, cfg, bits[n // 2 :])
        merged = _from_sweep(mult_hw, cfg, merge_sweeps([a, b]))
        assert merged.n_candidates == single.n_candidates
        assert np.array_equal(merged.verdicts, single.verdicts)
        assert merged.sensitivity == single.sensitivity
        assert merged.by_kind == single.by_kind

    def test_overlap_rejected(self, mult_hw, cfg):
        bits = np.arange(0, 1000, dtype=np.int64)
        a = seu_sweep(mult_hw, cfg, bits)
        with pytest.raises(CampaignError, match="overlap"):
            merge_sweeps([a, a])

    def test_empty_rejected(self):
        with pytest.raises(CampaignError, match="nothing to merge"):
            merge_sweeps([])
