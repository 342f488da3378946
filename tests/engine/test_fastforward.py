"""Golden-prefix fast-forward x result cache: the byte-identity matrix.

Fast-forward (snapshot restore instead of warmup replay) and the
content-addressed result cache are *accelerations*, not semantics: every
combination of fast-forward x cache x collapse x retire x jobs x
transport — including kill-and-resume and a warm-cache second run —
must reproduce the pinned golden verdict bytes exactly.  The snapshot
tests underneath pin the mechanism itself: a mid-run state checkpoint
restored through ``initial_values`` continues the golden trace
cycle-for-cycle on every kernel backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ExecutorPolicy, executor_policy
from repro.engine.cache import fast_forward_scope, result_cache_scope
from repro.netlist.backends import (
    kernel_backend,
    make_simulator,
    simulator_class,
)
from repro.seu import (
    CampaignConfig,
    resume_campaign,
    run_campaign,
)
from tests.engine.test_distributed import _spawn_worker, _tcp_policy, kill_leftovers  # noqa: F401
from tests.utils.goldens import assert_golden_verdicts

GOLDEN_CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)

_BACKENDS = ["reference", "bitplane"]


def _golden_with_snapshots(design, stim, backend, stride=16):
    with kernel_backend(backend):
        cls = simulator_class()
        return cls.golden_trace(design, stim, snapshot_stride=stride)


class TestSnapshotRestore:
    """The mechanism: restore a checkpoint, continue the golden trace."""

    @pytest.mark.parametrize("backend", _BACKENDS)
    def test_restore_continues_trace_cycle_for_cycle(self, mult_hw, backend):
        design = mult_hw.decoded.design
        stim = mult_hw.spec.stimulus(96)
        golden = _golden_with_snapshots(design, stim, backend)
        assert golden.snapshot_cycles is not None
        start, state = golden.nearest_snapshot(40)
        assert start == 32 and state is not None

        with kernel_backend(backend):
            sim = make_simulator(design, initial_values=state)
            outputs = sim.run(stim[start:])
        assert np.array_equal(outputs[:, 0, :], golden.outputs[start:])
        if design.n_ffs:
            final = sim.state_snapshot()[design.ff_nodes]
            assert np.array_equal(final, golden.final_state)

    def test_snapshots_identical_across_backends(self, mult_hw):
        design = mult_hw.decoded.design
        stim = mult_hw.spec.stimulus(80)
        ref = _golden_with_snapshots(design, stim, "reference")
        for backend in _BACKENDS[1:]:
            other = _golden_with_snapshots(design, stim, backend)
            assert np.array_equal(other.snapshot_cycles, ref.snapshot_cycles), backend
            assert np.array_equal(other.snapshots, ref.snapshots), backend

    def test_before_first_stride_falls_back_to_cold_start(self, mult_hw):
        design = mult_hw.decoded.design
        golden = _golden_with_snapshots(design, mult_hw.spec.stimulus(96), "reference")
        assert golden.nearest_snapshot(10) == (0, None)

    def test_trace_without_snapshots_has_none(self, mult_hw):
        design = mult_hw.decoded.design
        cls = simulator_class()
        golden = cls.golden_trace(design, mult_hw.spec.stimulus(48))
        assert golden.snapshot_cycles is None
        assert golden.nearest_snapshot(40) == (0, None)


class TestFastForwardDifferential:
    """ff on vs off on a warmup long enough that the restore is real."""

    def test_verdicts_identical_and_cycles_skipped(self, mult_hw):
        cfg = CampaignConfig(
            warmup_cycles=96,  # > the 64-cycle snapshot stride
            detect_cycles=24,
            persist_cycles=0,
            classify_persistence=False,
            stride=13,
            batch_size=32,
        )
        with fast_forward_scope(False), result_cache_scope(None):
            cold = run_campaign(mult_hw, cfg)
        with fast_forward_scope(True), result_cache_scope(None):
            ff = run_campaign(mult_hw, cfg)
        assert np.array_equal(ff.verdicts, cold.verdicts)
        assert ff.telemetry.ff_cycles_skipped > 0
        assert cold.telemetry.ff_cycles_skipped == 0


class TestGoldenMatrix:
    """Every acceleration combo reproduces the pinned golden SHA."""

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
        with fast_forward_scope(ff), result_cache_scope(str(tmp_path / "cache")):
            result = run_campaign(mult_hw, GOLDEN_CFG, collapse=collapse, retire=retire)
        assert_golden_verdicts("seu_verdicts", result.verdicts)

    def test_warm_cache_second_run_identical_and_served(self, mult_hw, tmp_path):
        with result_cache_scope(str(tmp_path / "cache")):
            cold = run_campaign(mult_hw, GOLDEN_CFG)
            warm = run_campaign(mult_hw, GOLDEN_CFG)
        assert_golden_verdicts("seu_verdicts", cold.verdicts)
        assert_golden_verdicts("seu_verdicts", warm.verdicts)
        assert warm.telemetry.cache_hits > 0
        assert cold.telemetry.cache_hits == 0

    def test_collapse_variants_share_cache_entries(self, mult_hw, tmp_path):
        # Collapse cannot change a byte, so the sweep key leaves it out
        # and the no-collapse run is served the collapsed run's entry.
        with result_cache_scope(str(tmp_path / "cache")):
            run_campaign(mult_hw, GOLDEN_CFG, collapse=True)
            other = run_campaign(mult_hw, GOLDEN_CFG, collapse=False)
        assert other.telemetry.cache_hits > 0
        assert_golden_verdicts("seu_verdicts", other.verdicts)

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
        with fast_forward_scope(True), result_cache_scope(str(tmp_path / "cache")):
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
        policy = _tcp_policy(
            min_workers=2,
            announce=announce,
            result_cache=str(tmp_path / "cache"),
        )
        with executor_policy(policy):
            # Spawned inside the scope so workers inherit the exported
            # REPRO_RESULT_CACHE and serve stolen shards locally.
            workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(2)]
            kill_leftovers.extend(workers)
            cold = run_campaign(mult_hw, GOLDEN_CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", cold.verdicts)

        with executor_policy(policy):
            workers = [_spawn_worker(f"@{announce}", f"w{i}") for i in range(2)]
            kill_leftovers.extend(workers)
            warm = run_campaign(mult_hw, GOLDEN_CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", warm.verdicts)
        assert warm.telemetry.cache_hits > 0
