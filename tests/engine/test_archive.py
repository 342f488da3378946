"""The done-candidate set of sweep archives, SEU campaigns' included.

``save_sweep`` stores which candidates are done as a packed bitmask
over the verdict space (``encode_done``), not as a list of int64 ids.
The tests pin that the mask round-trips to the same sorted ids, that it
refuses ids it cannot hold instead of folding them, that a malformed
mask is a named error, and that archives in an older layout (the id
list, the campaign-result layout) are named errors too.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.designs import array_multiplier
from repro.engine import load_sweep, run_serial, save_sweep
from repro.engine.cache import implemented_design, result_cache_scope
from repro.engine.sweep import SweepResult, decode_done, encode_done
from repro.errors import CampaignError
from repro.seu import CampaignConfig, run_campaign
from repro.seu.campaign import SEUFaultModel

CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


def _sweep(n_space: int, ids) -> SweepResult:
    ids = np.asarray(ids, dtype=np.int64)
    verdicts = np.zeros(n_space, dtype=np.uint8)
    verdicts[ids[(ids >= 0) & (ids < n_space)]] = 4
    return SweepResult("toy", "toy:key", n_space, verdicts, ids)


def _rewrite(path: str, **changes) -> None:
    """Rewrite the archive at ``path`` with some arrays replaced."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    arrays.update(changes)
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


class TestEncodeDone:
    @pytest.mark.parametrize("n_space", [1, 7, 8, 9, 1000])
    def test_round_trip_sorted_int64(self, n_space):
        rng = np.random.default_rng(n_space)
        ids = rng.permutation(n_space)[: max(1, n_space // 3)]
        packed = encode_done(ids, n_space)
        assert packed.dtype == np.uint8 and packed.size == -(-n_space // 8)
        back = decode_done({"done_bits": packed}, n_space, "x.npz")
        assert back.dtype == np.int64
        assert np.array_equal(back, np.sort(ids))

    def test_empty_set(self):
        packed = encode_done(np.empty(0, dtype=np.int64), 20)
        back = decode_done({"done_bits": packed}, 20, "x.npz")
        assert back.size == 0 and back.dtype == np.int64

    @pytest.mark.parametrize("bad", [-1, 100, 1000])
    def test_out_of_range_id_raises(self, bad):
        with pytest.raises(CampaignError, match=f"candidate id {bad}: outside"):
            encode_done(np.array([3, bad]), 100)

    def test_duplicate_id_raises(self):
        with pytest.raises(CampaignError, match="candidate id 5: listed more than once"):
            encode_done(np.array([1, 5, 9, 5]), 100)

    def test_save_sweep_never_folds(self, tmp_path):
        for ids in ([1, 2, 2], [1, 2, 50]):
            path = str(tmp_path / "s.npz")
            with pytest.raises(CampaignError, match="candidate id"):
                save_sweep(_sweep(50, ids), path)
            assert not os.path.exists(path)


class TestLoadChecks:
    def test_wrong_length_mask_is_a_campaign_error(self, tmp_path):
        path = str(tmp_path / "s.npz")
        save_sweep(_sweep(100, [0, 3, 99]), path)
        for bad in (np.zeros(12, np.uint8), np.zeros(14, np.uint8), np.zeros(13, np.int64)):
            _rewrite(path, done_bits=bad)
            with pytest.raises(CampaignError, match="done_bits must be 13 uint8 bytes"):
                load_sweep(path)

    def test_padding_bits_past_the_space_are_rejected(self, tmp_path):
        path = str(tmp_path / "s.npz")
        save_sweep(_sweep(100, [0, 3, 99]), path)
        packed = encode_done(np.array([0, 3, 99]), 100)
        packed[-1] |= 1  # bit 103
        _rewrite(path, done_bits=packed)
        with pytest.raises(CampaignError, match="past 100"):
            load_sweep(path)

    def test_campaign_archive_wrong_length_mask(self, mult_hw, tmp_path):
        path = str(tmp_path / "c.npz")
        with result_cache_scope(None):
            result = run_campaign(
                mult_hw, CFG, candidate_bits=np.arange(0, 700, 7), checkpoint_path=path
            )
        back = load_sweep(path)
        assert np.array_equal(back.candidate_ids, result.candidate_bits)
        assert np.array_equal(back.verdicts, result.verdicts)
        _rewrite(path, done_bits=np.zeros(3, np.uint8))
        with pytest.raises(CampaignError, match="done_bits must be"):
            load_sweep(path)

    def test_campaign_result_layout_names_the_missing_fields(self):
        """A checkpoint in the campaign-result layout campaigns wrote
        before they checkpointed through ``save_sweep`` is not read."""
        fixture = Path(__file__).resolve().parents[1] / "data" / "seu_prefix_cut_checkpoint.npz"
        with pytest.raises(
            CampaignError,
            match=r"seu_prefix_cut_checkpoint\.npz.*has no model_name, model_key, n_space, "
            r"done_bits$",
        ):
            load_sweep(str(fixture))

    def test_id_list_layout_names_the_missing_field(self, tmp_path):
        """An archive listing its done ids under ``candidate_ids`` (the
        layout before the packed mask) is not read."""
        path = str(tmp_path / "legacy.npz")
        save_sweep(_sweep(100, [0, 3, 99]), path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "done_bits"}
        with open(path, "wb") as f:
            np.savez_compressed(f, candidate_ids=np.array([0, 3, 99]), **arrays)
        with pytest.raises(CampaignError, match=r"legacy\.npz.*has no done_bits$"):
            load_sweep(path)


class TestArchiveSize:
    def test_table1_sweep_archive_is_small(self, tmp_path):
        """MULT6/S12 at stride 3 (100,464 candidates) archives in < 16 KB;
        listing the ids as int64 took 159 KB."""
        hw = implemented_design(array_multiplier(6), "S12")
        config = CampaignConfig(detect_cycles=96, persist_cycles=64, stride=3)
        model = SEUFaultModel(hw.spec, hw.device.name, config)
        with result_cache_scope(None):
            sweep = run_serial(model)
        assert sweep.n_candidates == 100_464
        sweep_path = str(tmp_path / "sweep.npz")
        save_sweep(sweep, sweep_path)
        assert os.path.getsize(sweep_path) < 16 * 1024
        back = load_sweep(sweep_path)
        assert np.array_equal(back.candidate_ids, sweep.candidate_ids)
        assert np.array_equal(back.verdicts, sweep.verdicts)
