import dataclasses

import numpy as np
import pytest

from repro.errors import CampaignError
from repro.seu import CampaignConfig, build_correlation_table, run_campaign


@pytest.fixture(scope="module")
def corr_setup(mult_hw):
    cfg = CampaignConfig(detect_cycles=64, persist_cycles=0, classify_persistence=False)
    bits = np.arange(0, mult_hw.device.block0_bits, 19, dtype=np.int64)
    result = run_campaign(mult_hw, cfg, candidate_bits=bits)
    table = build_correlation_table(mult_hw, result, cfg)
    return result, table


class TestCorrelationTable:
    def test_covers_every_sensitive_bit(self, corr_setup):
        result, table = corr_setup
        assert set(table.by_bit) == {int(b) for b in result.sensitive_bits}

    def test_every_sensitive_bit_disturbs_something(self, corr_setup):
        _, table = corr_setup
        for bit, mask in table.by_bit.items():
            assert mask.any(), f"bit {bit} sensitive but no output flagged"

    def test_outputs_of_matches_masks(self, corr_setup):
        _, table = corr_setup
        bit = next(iter(table.by_bit))
        outs = table.outputs_of(bit)
        assert outs.size >= 1
        for o in outs:
            assert bit in table.bits_endangering(int(o))

    def test_unknown_bit_gives_empty(self, corr_setup):
        _, table = corr_setup
        assert table.outputs_of(10**7 + 1).size == 0

    def test_output_index_validated(self, corr_setup):
        _, table = corr_setup
        with pytest.raises(CampaignError):
            table.bits_endangering(table.n_outputs)

    def test_cross_section_totals(self, corr_setup):
        _, table = corr_setup
        xs = table.output_cross_section()
        assert xs.sum() == sum(int(m.sum()) for m in table.by_bit.values())
        assert xs.max() > 0

    def test_low_output_bits_have_widest_cross_section(self, corr_setup, mult_hw):
        """In a multiplier, low product bits feed into every higher bit's
        carry chain, so upsets in their cone disturb many outputs: the
        per-output endangering-bit counts must be far from uniform."""
        _, table = corr_setup
        xs = table.output_cross_section()
        nonzero = xs[xs > 0]
        assert nonzero.max() > 2 * nonzero.min()

    def test_fanin_histogram_consistent(self, corr_setup):
        _, table = corr_setup
        hist = table.fanin_histogram()
        assert sum(hist.values()) == len(table.by_bit)
        assert 0 not in hist

    def test_max_bits_truncation(self, mult_hw, corr_setup):
        result, _ = corr_setup
        cfg = CampaignConfig(detect_cycles=64, persist_cycles=0, classify_persistence=False)
        small = build_correlation_table(mult_hw, result, cfg, max_bits=5)
        assert len(small.by_bit) == 5

    def test_checkpoint_resumes_at_another_batch_size(self, mult_hw, corr_setup, tmp_path):
        """Batch size is not part of the model key, so a checkpoint
        written at one batch size resumes at another."""
        result, table = corr_setup
        cfg = CampaignConfig(detect_cycles=64, persist_cycles=0, classify_persistence=False)
        path = str(tmp_path / "corr.npz")
        build_correlation_table(
            mult_hw, result, dataclasses.replace(cfg, batch_size=32), checkpoint_path=path
        )
        resumed = build_correlation_table(
            mult_hw, result, dataclasses.replace(cfg, batch_size=16),
            checkpoint_path=path, resume=True,
        )
        assert resumed.by_bit.keys() == table.by_bit.keys()
        for bit, mask in table.by_bit.items():
            np.testing.assert_array_equal(resumed.by_bit[bit], mask)
