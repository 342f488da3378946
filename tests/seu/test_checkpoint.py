"""Campaign checkpoint/resume: atomic snapshots, kill-and-resume identity.

A campaign checkpoints as an engine archive (``save_sweep``), read back
with ``load_sweep``; a resume takes its config from the archive's model
key.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.engine import SweepResult, load_sweep, save_sweep
from repro.errors import CampaignError
from repro.seu import CampaignConfig, SEUFaultModel, resume_campaign, run_campaign
import repro.netlist.simulator as simmod
from tests.utils.goldens import assert_golden_verdicts


# Small batches so the test design (~120 simulated bits) spans several
# simulator batches — the kill must land mid-sweep, between checkpoints.
CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=13, batch_size=32)
#: the campaign pinned by the ``seu_verdicts`` golden
GOLDEN_CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


@pytest.fixture(scope="module")
def full_checkpoint(tmp_path_factory):
    """Path of the complete checkpoint ``full_result`` leaves behind."""
    return str(tmp_path_factory.mktemp("full") / "result.npz")


@pytest.fixture(scope="module")
def full_result(lfsr_hw, full_checkpoint):
    return run_campaign(lfsr_hw, CFG, checkpoint_path=full_checkpoint)


class Killed(Exception):
    pass


def run_until_killed(hw, path, kill_after_batches, checkpoint_every=1):
    """Run a checkpointed campaign and kill it after N simulator batches."""
    orig = simmod.BatchSimulator.run_verdicts
    calls = {"n": 0}

    def dying(self, *a, **k):
        calls["n"] += 1
        if calls["n"] > kill_after_batches:
            raise Killed()
        return orig(self, *a, **k)

    simmod.BatchSimulator.run_verdicts = dying
    try:
        run_campaign(hw, CFG, checkpoint_path=path, checkpoint_every=checkpoint_every)
    except Killed:
        pass
    finally:
        simmod.BatchSimulator.run_verdicts = orig


class TestSaveLoad:
    def test_round_trip(self, lfsr_hw, full_result, full_checkpoint):
        back = load_sweep(full_checkpoint)
        model = SEUFaultModel(lfsr_hw.spec, lfsr_hw.device.name, CFG)
        assert back.model_name == "seu"
        assert back.model_key == model.key()
        assert back.n_candidates == full_result.n_candidates
        assert np.array_equal(back.verdicts, full_result.verdicts)
        assert np.array_equal(back.candidate_ids, full_result.candidate_bits)
        assert back.n_simulated == full_result.n_simulated
        assert back.host_seconds == full_result.host_seconds
        assert back.telemetry.n_simulated == full_result.telemetry.n_simulated

    def test_load_missing_file_raises_campaign_error(self, tmp_path):
        with pytest.raises(CampaignError):
            load_sweep(str(tmp_path / "nope.npz"))

    def test_load_garbage_raises_campaign_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a numpy archive")
        with pytest.raises(CampaignError):
            load_sweep(str(path))

    def test_save_leaves_no_tmp_file(self, full_result, full_checkpoint):
        path = Path(full_checkpoint)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()


class TestResumeIdentity:
    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_killed_campaign_resumes_to_identical_result(
        self, lfsr_hw, full_result, tmp_path, kill_after
    ):
        """The acceptance criterion: kill mid-sweep, resume, and the
        merged result is indistinguishable from an uninterrupted run."""
        path = str(tmp_path / f"ckpt{kill_after}.npz")
        run_until_killed(lfsr_hw, path, kill_after_batches=kill_after)
        part = load_sweep(path)
        assert 0 < part.n_candidates < full_result.n_candidates

        resumed = resume_campaign(lfsr_hw, path, checkpoint_every=1)
        assert np.array_equal(resumed.verdicts, full_result.verdicts)
        assert np.array_equal(resumed.candidate_bits, full_result.candidate_bits)
        assert resumed.n_candidates == full_result.n_candidates
        assert resumed.by_kind == full_result.by_kind
        assert resumed.sensitivity == full_result.sensitivity
        assert resumed.persistence_ratio == full_result.persistence_ratio
        # No candidate was simulated twice across checkpoint + remainder.
        assert resumed.n_simulated == full_result.n_simulated

    def test_resume_twice_killed_campaign(self, lfsr_hw, full_result, tmp_path):
        """A resumed run interrupted again still converges to identity."""
        path = str(tmp_path / "ckpt_twice.npz")
        run_until_killed(lfsr_hw, path, kill_after_batches=1)

        orig = simmod.BatchSimulator.run_verdicts
        calls = {"n": 0}

        def dying(self, *a, **k):
            calls["n"] += 1
            if calls["n"] > 1:
                raise Killed()
            return orig(self, *a, **k)

        simmod.BatchSimulator.run_verdicts = dying
        try:
            resume_campaign(lfsr_hw, path, checkpoint_every=1)
        except Killed:
            pass
        finally:
            simmod.BatchSimulator.run_verdicts = orig

        final = resume_campaign(lfsr_hw, path, checkpoint_every=1)
        assert np.array_equal(final.verdicts, full_result.verdicts)
        assert np.array_equal(final.candidate_bits, full_result.candidate_bits)

    def test_resume_of_complete_run_returns_checkpoint(
        self, lfsr_hw, full_result, tmp_path
    ):
        path = str(tmp_path / "done.npz")
        result = run_campaign(lfsr_hw, CFG, checkpoint_path=path)
        resumed = resume_campaign(lfsr_hw, path)
        assert np.array_equal(resumed.verdicts, result.verdicts)
        assert resumed.n_simulated == result.n_simulated  # nothing re-run


class TestResumeValidation:
    def test_wrong_design_rejected(self, mult_hw, full_result, full_checkpoint):
        with pytest.raises(CampaignError, match="is for"):
            resume_campaign(mult_hw, full_checkpoint)

    def test_missing_checkpoint_rejected(self, lfsr_hw, tmp_path):
        with pytest.raises(CampaignError):
            resume_campaign(lfsr_hw, str(tmp_path / "absent.npz"))

    def test_resume_takes_the_config_from_the_checkpoint(
        self, lfsr_hw, full_result, full_checkpoint
    ):
        """The config comes back from the archive's model key;
        ``batch_size`` is in no key and resumes at the default."""
        resumed = resume_campaign(lfsr_hw, full_checkpoint)
        assert resumed.config == CFG.unbatched()
        assert np.array_equal(resumed.verdicts, full_result.verdicts)

    def test_resume_loads_the_archive_once(
        self, lfsr_hw, full_result, tmp_path, monkeypatch
    ):
        """The config is read from the archive's model key alone; only
        the resume itself decodes the verdicts and done bits."""
        import repro.engine.sweep as sweepmod

        path = str(tmp_path / "half.npz")
        bits = SEUFaultModel(lfsr_hw.spec, lfsr_hw.device.name, CFG).enumerate_candidates()
        run_campaign(lfsr_hw, CFG, candidate_bits=bits[::2], checkpoint_path=path)
        calls = []
        real = sweepmod.load_sweep

        def spy(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(sweepmod, "load_sweep", spy)
        resumed = resume_campaign(lfsr_hw, path)
        assert calls == [path]
        assert np.array_equal(resumed.verdicts, full_result.verdicts)


class TestPrefixCutCheckpoint:
    """A checkpoint from the earlier prefix-cut collapse driver resumes.

    ``tests/data/seu_prefix_cut_checkpoint.npz`` was written by the
    driver that batched survivors in candidate order and, under collapse,
    folded only the resolved survivor prefix cut at a batch boundary: the
    golden MULT4/S8 campaign (``stride=7``, ``batch_size=32``) run with
    ``jobs=2`` and ``checkpoint_every=64`` and killed on its fourth
    checkpoint write.  It holds every pre-filter skip and the first 128
    survivors.  The file keeps the campaign-result layout it was written
    in, which campaigns no longer read, so the test rebuilds its
    ``verdicts`` / ``candidate_bits`` as an engine archive.  Verdicts do
    not depend on batching, so today's driver resumes it to the golden
    bytes.
    """

    FIXTURE = Path(__file__).resolve().parents[1] / "data" / "seu_prefix_cut_checkpoint.npz"

    def _engine_archive(self, hw, path: str) -> None:
        with np.load(self.FIXTURE, allow_pickle=False) as old:
            assert str(old["design_name"]) == hw.spec.name
            assert str(old["device_name"]) == hw.device.name
            config = CampaignConfig(**json.loads(str(old["config_json"])))
            assert config == GOLDEN_CFG
            model = SEUFaultModel(hw.spec, hw.device.name, config)
            save_sweep(
                SweepResult(
                    model_name=model.name,
                    model_key=model.key(),
                    n_space=int(old["verdicts"].size),
                    verdicts=old["verdicts"],
                    candidate_ids=old["candidate_bits"],
                    n_simulated=int(old["n_simulated"]),
                    host_seconds=float(old["host_seconds"]),
                ),
                path,
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumes_to_golden(self, mult_hw, tmp_path, jobs):
        path = str(tmp_path / "ck.npz")
        self._engine_archive(mult_hw, path)
        part = load_sweep(path)
        assert 0 < part.n_simulated < 555 and part.n_candidates < 23246
        resumed = resume_campaign(mult_hw, path, jobs=jobs)
        assert resumed.n_candidates == 23246 and resumed.n_simulated == 555
        assert_golden_verdicts("seu_verdicts", resumed.verdicts)

    def test_old_layout_is_rejected_naming_the_archive(self, mult_hw, tmp_path):
        """The file itself, in the campaign-result layout, is no sweep
        archive: resuming it is a named error, not a traceback."""
        path = str(tmp_path / "old.npz")
        shutil.copyfile(self.FIXTURE, path)
        with pytest.raises(CampaignError, match="old.npz.*not a sweep archive"):
            resume_campaign(mult_hw, path)
