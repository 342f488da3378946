"""Golden-prefix fast-forward x result cache: the byte-identity matrix.

Fast-forward (snapshot restore instead of warmup replay) and the
content-addressed result cache are *accelerations*, not semantics: the
product path under the cache, jobs and transport — including
kill-and-resume and a warm-cache second run — must reproduce the pinned
golden verdict bytes exactly, and so must a sweep over the cold context
(``build_context(..., fast_forward=False)``: golden run and warmup
replay from cycle 0) and over the reference models without collapsing
or retirement (``tests/utils/reference_models.py``).  The snapshot
tests underneath pin the mechanism itself: a mid-run state checkpoint
restored through ``initial_values`` continues the golden trace
cycle-for-cycle on both kernel paths (the compiled step and its numpy
body).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.engine import executor_policy
from repro.engine.cache import SNAPSHOT_STRIDE, content_key, result_cache_scope
from repro.netlist.simulator import BatchSimulator
from repro.seu import (
    CampaignConfig,
    resume_campaign,
    run_campaign,
)
from repro.seu.campaign import _golden_pack_key
from tests.engine.test_distributed import _spawn_worker, _tcp_policy, kill_leftovers  # noqa: F401
from tests.netlist.conftest import REFERENCE_PATHS, use_reference_path
from tests.utils.goldens import assert_golden_verdicts
from tests.utils.reference_models import seu_campaign

GOLDEN_CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


def _golden_with_snapshots(design, stim, stride=16):
    return BatchSimulator.golden_trace(design, stim, snapshot_stride=stride)


class TestSnapshotRestore:
    """The mechanism: restore a checkpoint, continue the golden trace."""

    @pytest.mark.parametrize("path", REFERENCE_PATHS)
    def test_restore_continues_trace_cycle_for_cycle(self, mult_hw, path, monkeypatch):
        use_reference_path(path, monkeypatch)
        design = mult_hw.decoded.design
        stim = mult_hw.spec.stimulus(96)
        golden = _golden_with_snapshots(design, stim)
        assert golden.snapshot_cycles is not None
        start, state = golden.nearest_snapshot(40)
        assert start == 32 and state is not None

        sim = BatchSimulator(design, initial_values=state)
        outputs = sim.run(stim[start:])
        assert np.array_equal(outputs[:, 0, :], golden.outputs[start:])
        if design.n_ffs:
            final = sim.state_snapshot()[design.ff_nodes]
            assert np.array_equal(final, golden.final_state)

    def test_snapshots_identical_on_both_paths(self, mult_hw, monkeypatch):
        design = mult_hw.decoded.design
        stim = mult_hw.spec.stimulus(80)
        use_reference_path("reference", monkeypatch)
        ref = _golden_with_snapshots(design, stim)
        use_reference_path("reference-numpy", monkeypatch)
        other = _golden_with_snapshots(design, stim)
        assert np.array_equal(other.snapshot_cycles, ref.snapshot_cycles)
        assert np.array_equal(other.snapshots, ref.snapshots)

    def test_before_first_stride_falls_back_to_cold_start(self, mult_hw):
        design = mult_hw.decoded.design
        golden = _golden_with_snapshots(design, mult_hw.spec.stimulus(96))
        assert golden.nearest_snapshot(10) == (0, None)

    def test_trace_without_snapshots_has_none(self, mult_hw):
        design = mult_hw.decoded.design
        golden = BatchSimulator.golden_trace(design, mult_hw.spec.stimulus(48))
        assert golden.snapshot_cycles is None
        assert golden.nearest_snapshot(40) == (0, None)


class TestGoldenPackKey:
    def test_key_hashes_the_stride_64_bytes(self, mult_hw):
        """The pack key is the store's one derivation over the design,
        the stimulus and the stride (64) its snapshots are spaced by."""
        design = mult_hw.decoded.design
        stim = mult_hw.spec.stimulus(96)
        assert SNAPSHOT_STRIDE == 64
        want = content_key("golden-pack", pickle.dumps(design), stim, 64)
        assert _golden_pack_key(design, stim) == want


class TestFastForwardDifferential:
    """ff on vs off on a warmup long enough that the restore is real."""

    CFG = CampaignConfig(
        warmup_cycles=96,  # > the 64-cycle snapshot stride
        detect_cycles=24,
        persist_cycles=0,
        classify_persistence=False,
        stride=13,
        batch_size=32,
    )

    def test_verdicts_identical_and_cycles_skipped(self, mult_hw):
        with result_cache_scope(None):
            cold = seu_campaign(mult_hw, self.CFG, fast_forward=False)
            ff = run_campaign(mult_hw, self.CFG)
        assert np.array_equal(ff.verdicts, cold.verdicts)
        assert ff.telemetry.ff_cycles_skipped > 0
        assert cold.telemetry.ff_cycles_skipped == 0

    def test_former_env_settings_are_inert(self, mult_hw, monkeypatch):
        """``REPRO_FAST_FORWARD`` / ``REPRO_SNAPSHOT_STRIDE`` are gone: a
        stale environment neither turns the restore off nor moves the
        stride or the golden-pack key."""
        monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
        monkeypatch.setenv("REPRO_SNAPSHOT_STRIDE", "128")
        design = mult_hw.decoded.design
        stim = mult_hw.spec.stimulus(self.CFG.warmup_cycles)
        want = content_key("golden-pack", pickle.dumps(design), stim, 64)
        assert _golden_pack_key(design, stim) == want
        with result_cache_scope(None):
            ff = run_campaign(mult_hw, self.CFG)
        # One context build: the restore starts at the last stride-64
        # snapshot before the 96-cycle warmup, and the golden run itself
        # is skipped too when the golden-pack store already holds it.
        assert ff.telemetry.ff_cycles_skipped in (64, 64 + self.CFG.total_cycles)


class TestGoldenMatrix:
    """Every shrinker combination reproduces the pinned golden SHA: the
    product path, the cold context and the reference models
    (``tests/utils/reference_models.py``)."""

    @pytest.mark.parametrize(
        "ff,collapse,retire",
        [
            (False, True, True),
            (True, True, True),
            (True, False, True),
            (True, True, False),
        ],
    )
    def test_serial_combo_matches_golden(self, mult_hw, tmp_path, ff, collapse, retire):
        with result_cache_scope(str(tmp_path / "cache")):
            result = seu_campaign(
                mult_hw, GOLDEN_CFG, fast_forward=ff, collapse=collapse, retire=retire
            )
        assert_golden_verdicts("seu_verdicts", result.verdicts)

    def test_warm_cache_second_run_identical_and_served(self, mult_hw, tmp_path):
        with result_cache_scope(str(tmp_path / "cache")):
            cold = run_campaign(mult_hw, GOLDEN_CFG)
            warm = run_campaign(mult_hw, GOLDEN_CFG)
        assert_golden_verdicts("seu_verdicts", cold.verdicts)
        assert_golden_verdicts("seu_verdicts", warm.verdicts)
        assert warm.telemetry.cache_hits > 0
        assert cold.telemetry.cache_hits == 0

    def test_parallel_jobs_with_cache_matches_golden(self, mult_hw, tmp_path):
        with result_cache_scope(str(tmp_path / "cache")):
            cold = run_campaign(mult_hw, GOLDEN_CFG, jobs=2)
            warm = run_campaign(mult_hw, GOLDEN_CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", cold.verdicts)
        assert_golden_verdicts("seu_verdicts", warm.verdicts)
        assert warm.telemetry.cache_hits > 0

    def test_kill_and_resume_with_cache_matches_golden(self, mult_hw, tmp_path):
        ckpt = str(tmp_path / "ckpt.npz")
        bits = np.arange(0, mult_hw.device.block0_bits, GOLDEN_CFG.stride)
        with result_cache_scope(str(tmp_path / "cache")):
            # "Killed" run: only the first half of the sweep reaches disk.
            run_campaign(
                mult_hw, GOLDEN_CFG, candidate_bits=bits[: bits.size // 2],
                checkpoint_path=ckpt,
            )
            resumed = resume_campaign(mult_hw, ckpt)
        assert resumed.candidate_bits.size == bits.size
        assert_golden_verdicts("seu_verdicts", resumed.verdicts)


@pytest.mark.timeout(300)
class TestTcpCache:
    """The cache across the wire: TCP workers, then a warm repeat."""

    def test_tcp_campaign_cold_then_warm_matches_golden(
        self, mult_hw, tmp_path, kill_leftovers
    ):
        announce = str(tmp_path / "addr")
        policy = _tcp_policy(min_workers=2, announce=announce)
        cache = str(tmp_path / "cache")
        with executor_policy(policy), result_cache_scope(cache):
            # The coordinator's store serves and stores every shard;
            # the workers only simulate.
            workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(2)]
            kill_leftovers.extend(workers)
            cold = run_campaign(mult_hw, GOLDEN_CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", cold.verdicts)

        with executor_policy(policy), result_cache_scope(cache):
            workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(2)]
            kill_leftovers.extend(workers)
            warm = run_campaign(mult_hw, GOLDEN_CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", warm.verdicts)
        assert warm.telemetry.cache_hits > 0
