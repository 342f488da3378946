"""Reference fault models: the product models with their shrinkers off (test-only).

Fault collapsing, machine retirement and golden-prefix fast-forward are
not options of the product path; every sweep runs all three.  Their
verdict identity is checked against the reference paths the engine and
the kernel keep for that purpose:

- ``collapsible = False``: the engine simulates every survivor itself;
- ``retire=False`` in the kernel: no machine leaves its batch early;
- ``build_context(..., fast_forward=False)``: the golden run and the
  warmup replay start from cycle 0.

Every reference observes on the full design: the product models run
each batch on its closure (:func:`repro.netlist.cone.restrict`), so the
matrices built on these references check that code against code that
does not use it.

:func:`reference_model` turns a product model into its reference for
one ``(collapse, retire)`` combination.  A reference has the product
model's fields and :meth:`~repro.engine.model.FaultModel.key`, so
checkpoints carry over between the two; its classes live at module
level, so pools and remote workers unpickle them.
:func:`seu_campaign` / :func:`resume_seu_campaign` are
:func:`~repro.seu.run_campaign` / :func:`~repro.seu.resume_campaign`
over such a reference: the engine's ``run_sweep``
plus the campaign's one conversion, ``_from_sweep``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import ClassVar

from repro.bist.coverage import BistCoverageModel
from repro.engine import prime_design_cache, run_sweep
from repro.engine.detect import detect_failures
from repro.engine.model import FaultModel
from repro.netlist.simulator import BatchSimulator
from repro.seu import CampaignConfig
from repro.seu.campaign import (
    CampaignResult,
    HalfLatchFaultModel,
    SEUFaultModel,
    _checkpoint_model,
    _from_sweep,
    _verdict_codes,
    build_context,
)
from repro.seu.multibit import MBUFaultModel


class UncollapsedSEUModel(SEUFaultModel):
    collapsible: ClassVar[bool] = False


class UnretiredSEUModel(SEUFaultModel):
    def observe_batch(self, ctx, pending):
        _, cctx = ctx
        config = self.config
        sim = BatchSimulator(
            cctx.design, [p for _, p in pending], initial_values=cctx.snapshot
        )
        verdicts = sim.run_verdicts(
            cctx.post_stim,
            cctx.post_golden,
            config.detect_cycles,
            config.persist_cycles if config.classify_persistence else 0,
            config.converge_run,
        )
        return _verdict_codes(config, verdicts)


class NaiveSEUModel(UnretiredSEUModel):
    collapsible: ClassVar[bool] = False


class UncollapsedHalfLatchModel(HalfLatchFaultModel):
    collapsible: ClassVar[bool] = False


class UnretiredHalfLatchModel(HalfLatchFaultModel):
    def observe_batch(self, ctx, pending):
        _, cctx = ctx
        sim = BatchSimulator(
            cctx.design, [p for _, p in pending], initial_values=cctx.snapshot
        )
        failed = detect_failures(
            sim,
            cctx.post_stim,
            cctx.post_golden.outputs,
            self.config.detect_cycles,
            retire=False,
        )
        return [bool(f) for f in failed]


class NaiveMBUModel(MBUFaultModel):
    collapsible: ClassVar[bool] = False

    def observe_batch(self, ctx, pending):
        _, cctx, _ = ctx
        sim = BatchSimulator(
            cctx.design, [p for _, p in pending], initial_values=cctx.snapshot
        )
        failed = detect_failures(
            sim,
            cctx.post_stim,
            cctx.post_golden.outputs,
            self.config.detect_cycles,
            retire=False,
        )
        return [bool(f) for f in failed]


class NaiveBistCoverageModel(BistCoverageModel):
    collapsible: ClassVar[bool] = False

    def observe_batch(self, ctx, pending):
        hits = []
        for v, (hw, stim, golden) in enumerate(ctx):
            sim = BatchSimulator(hw.decoded.design, [pair[v] for _, pair in pending])
            hits.append(
                detect_failures(sim, stim, golden.outputs, self.cycles, retire=False)
            )
        return [(bool(h0), bool(h1)) for h0, h1 in zip(*hits)]


#: (product class, collapse, retire) -> reference class
_REFERENCES: dict[tuple[type, bool, bool], type] = {
    (SEUFaultModel, False, True): UncollapsedSEUModel,
    (SEUFaultModel, True, False): UnretiredSEUModel,
    (SEUFaultModel, False, False): NaiveSEUModel,
    (HalfLatchFaultModel, False, True): UncollapsedHalfLatchModel,
    (HalfLatchFaultModel, True, False): UnretiredHalfLatchModel,
    (MBUFaultModel, False, False): NaiveMBUModel,
    (BistCoverageModel, False, False): NaiveBistCoverageModel,
}


def reference_model(
    model: FaultModel, *, collapse: bool = True, retire: bool = True
) -> FaultModel:
    """``model`` itself when both shrinkers stay on, else its reference
    with the same field values."""
    if collapse and retire:
        return model
    cls = _REFERENCES[type(model), collapse, retire]
    return cls(**{f.name: getattr(model, f.name) for f in fields(model)})


def seu_campaign(
    hw,
    config: CampaignConfig,
    *,
    collapse: bool = True,
    retire: bool = True,
    fast_forward: bool = True,
    checkpoint_path: str | None = None,
    jobs: int = 1,
) -> CampaignResult:
    """:func:`run_campaign` over the reference model of one combination,
    over the cold context when ``fast_forward`` is off (in this process
    only)."""
    prime_design_cache(hw)
    model = reference_model(
        SEUFaultModel(hw.spec, hw.device.name, config), collapse=collapse, retire=retire
    )
    sweep = run_sweep(
        model,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        batch_size=config.batch_size,
        context=None if fast_forward else (hw, build_context(hw, config, fast_forward=False)),
    )
    return _from_sweep(hw, config, sweep)


def resume_seu_campaign(
    hw, checkpoint_path: str, *, collapse: bool = True, retire: bool = True, jobs: int = 1
) -> CampaignResult:
    """:func:`resume_campaign` over the reference model of one combination."""
    prime_design_cache(hw)
    model = reference_model(
        _checkpoint_model(hw, checkpoint_path), collapse=collapse, retire=retire
    )
    sweep = run_sweep(
        model, jobs, checkpoint_path, resume=True, batch_size=model.config.batch_size
    )
    return _from_sweep(hw, model.config, sweep)
