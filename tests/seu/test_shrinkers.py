"""Campaign-shrinker identity on the real fault models.

Fault collapsing and machine retirement are not options; every sweep
runs both.  They are only admissible because they are verdict-invariant,
so each real fault model is pinned against its reference with the
shrinker switched off test-side (``tests/utils/reference_models.py``:
``collapsible = False`` and the kernel's ``retire=False``): every
combination must reproduce the same golden SHAs the engine port is
pinned to, while the telemetry proves the shrinkers engaged exactly
where they are on.  Tracing must not move a byte either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bist.coverage import _report_from_sweep, run_coverage
from repro.bist.faults import sample_faults
from repro.bist.patterns import clb_test_design
from repro.engine import prime_design_cache, run_sweep
from repro.engine.cache import implemented_design
from repro.engine.model import CODE_FAIL
from repro.seu import (
    CampaignConfig,
    run_campaign,
    run_halflatch_sweep,
    run_multibit_campaign,
)
from repro.seu.campaign import HalfLatchFaultModel
from repro.seu.multibit import MBUFaultModel
from tests.utils.goldens import assert_golden_verdicts
from tests.utils.reference_models import NaiveBistCoverageModel, reference_model, seu_campaign

CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)
HL_CFG = CampaignConfig(
    detect_cycles=48, persist_cycles=0, classify_persistence=False, batch_size=32
)


class TestSEUFlagMatrix:
    @pytest.mark.parametrize(
        "collapse,retire",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_every_flag_combination_matches_golden(self, mult_hw, collapse, retire):
        result = seu_campaign(mult_hw, CFG, collapse=collapse, retire=retire)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert result.n_simulated == 555  # followers still count as simulated
        t = result.telemetry
        if collapse:
            assert t.n_collapsed > 0
        else:
            assert t.n_collapsed == 0
        if retire:
            assert t.machines_retired > 0 and t.machine_cycles_saved > 0
        else:
            assert t.machines_retired == 0 and t.machine_cycles_saved == 0

    def test_sharded_flags_match_serial(self, mult_hw):
        serial = run_campaign(mult_hw, CFG)
        for collapse, retire in [(True, True), (False, False)]:
            sharded = seu_campaign(mult_hw, CFG, jobs=2, collapse=collapse, retire=retire)
            assert np.array_equal(sharded.verdicts, serial.verdicts)


class TestHalfLatchFlags:
    @pytest.mark.parametrize("collapse,retire", [(True, False), (False, True)])
    def test_flags_match_golden(self, mult_hw, collapse, retire):
        prime_design_cache(mult_hw)
        model = HalfLatchFaultModel(mult_hw.spec, mult_hw.device.name, HL_CFG)
        sweep = run_sweep(
            reference_model(model, collapse=collapse, retire=retire),
            batch_size=HL_CFG.batch_size,
        )
        assert_golden_verdicts("halflatch_verdicts", sweep.verdicts)
        assert np.array_equal(sweep.verdicts, run_halflatch_sweep(mult_hw, HL_CFG).verdicts)


class TestMultiBitFlags:
    def test_flags_do_not_move_the_failure_count(self, mult_hw):
        base = run_multibit_campaign(
            mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3
        )
        model = MBUFaultModel(mult_hw.spec, mult_hw.device.name, CFG, 2, 128, 3)
        off = run_sweep(
            reference_model(model, collapse=False, retire=False),
            batch_size=CFG.batch_size,
        )
        assert base.n_failures == off.count(CODE_FAIL) == 3
        assert base.telemetry.n_simulated == off.telemetry.n_simulated == 128
        assert off.telemetry.n_collapsed == off.telemetry.machines_retired == 0


class TestBistCoverageFlags:
    def test_flags_do_not_move_the_report(self, s8):
        spec = clb_test_design(4, register_bits=8, variant=0)
        hw = implemented_design(spec, s8.name)
        faults = sample_faults(hw.decoded, 40, seed=5)
        base = run_coverage(s8, faults, cycles=96)
        model = NaiveBistCoverageModel(s8.name, tuple(faults), 4, 96)
        off = _report_from_sweep(model, run_sweep(model, batch_size=128))
        assert base.detected_by == off.detected_by
        assert base.undetected == off.undetected


class TestObservabilityInvariance:
    """Tracing/progress are observability, not semantics: every axis of
    the obs layer must leave the verdict bytes untouched (the obs
    contract, see DESIGN.md)."""

    @pytest.mark.parametrize(
        "trace,progress", [(True, False), (False, True), (True, True)]
    )
    def test_trace_and_progress_do_not_move_verdicts(
        self, mult_hw, tmp_path, trace, progress
    ):
        from repro.obs import observe
        from repro.obs.report import load_trace

        trace_path = str(tmp_path / "t.jsonl") if trace else None
        with observe(trace_path, progress, label="test"):
            result = run_campaign(mult_hw, CFG)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert result.n_simulated == 555
        if trace:
            tr = load_trace(trace_path)
            assert tr.malformed == 0 and not tr.resumed
            seg = tr.segments[0]
            names = {s.name for s in seg.spans.values()}
            # One driver, one span set: jobs=1 traces the same phases
            # and shards a pooled run does.
            assert {"campaign", "phase.prefilter", "phase.observe", "shard"} <= names
            assert seg.ended

    def test_sharded_trace_matches_golden(self, mult_hw, tmp_path):
        from repro.obs import observe
        from repro.obs.report import load_trace

        trace_path = str(tmp_path / "sharded.jsonl")
        with observe(trace_path, progress=False, label="test"):
            sharded = run_campaign(mult_hw, CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", sharded.verdicts)
        seg = load_trace(trace_path).segments[0]
        names = {s.name for s in seg.spans.values()}
        assert {"campaign", "phase.prefilter", "phase.observe", "shard"} <= names

    def test_kill_and_resume_trace_is_well_formed(
        self, mult_hw, tmp_path, monkeypatch
    ):
        import repro.engine.sweep as sweepmod
        from repro.obs import observe
        from repro.obs.report import load_trace

        class Killed(Exception):
            pass

        real_save = sweepmod.save_sweep
        calls = {"n": 0}

        def dying_save(sweep, path):
            calls["n"] += 1
            if calls["n"] > 2:
                raise Killed()
            real_save(sweep, path)

        ckpt = str(tmp_path / "hl.npz")
        trace_path = str(tmp_path / "resumed.jsonl")
        monkeypatch.setattr(sweepmod, "save_sweep", dying_save)
        with pytest.raises(Killed), observe(trace_path, label="test"):
            run_halflatch_sweep(mult_hw, HL_CFG, jobs=2, checkpoint_path=ckpt)
        monkeypatch.setattr(sweepmod, "save_sweep", real_save)

        with observe(trace_path, label="test", resumed=True):
            resumed = run_halflatch_sweep(
                mult_hw, HL_CFG, jobs=2, checkpoint_path=ckpt, resume=True
            )
        assert_golden_verdicts("halflatch_verdicts", resumed.verdicts)

        tr = load_trace(trace_path)
        assert tr.malformed == 0
        assert len(tr.segments) == 2
        assert not tr.segments[0].resumed and tr.segments[1].resumed
        assert tr.resumed
        # The killed segment was force-closed (aborted spans), the
        # resumed one ran to a clean run_end.
        assert tr.segments[0].ended and tr.segments[1].ended
        assert any(
            s.fields.get("aborted") for s in tr.segments[0].spans.values()
        ) or all(s.closed for s in tr.segments[0].spans.values())


class TestRemovedSwitches:
    @pytest.mark.parametrize("flag", ["--no-collapse", "--no-retire", "--no-fast-forward"])
    def test_parser_rejects(self, flag):
        from repro.cli import build_parser

        for cmd in (["campaign", "MULT4"], ["multibit", "MULT4"], ["bist-coverage"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(cmd + [flag])
            assert exc.value.code == 2
