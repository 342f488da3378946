"""Verdicts are per candidate: batch size, order and ``jobs`` never move a byte.

As in a one-bit-per-iteration inject/observe/repair loop, each verdict
must be the one a batch holding only that candidate gives.  The engine
batches only survivors with equal settle keys, so a batch's
auto-detected simulation parameters are each member's own.  Every sweep
here runs through :class:`OneKeyPerBatch`, which fails any batch that
mixes settle keys, and must reproduce the ``batch_size=1`` bytes (the
pinned goldens, where one exists) under any batch size, candidate
permutation and ``jobs``, with collapsing on and off.  Both checks
fail if batching ever matters again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.coverage import BistCoverageModel
from repro.bist.faults import sample_faults
from repro.bist.patterns import clb_test_design
from repro.engine import FaultModel, run_sharded
from repro.engine.cache import implemented_design
from repro.seu import CampaignConfig
from repro.seu.campaign import HalfLatchFaultModel, SEUFaultModel
from repro.seu.multibit import MBUFaultModel
from tests.utils.goldens import assert_golden_verdicts

#: the configurations the SEU, half-latch and MBU goldens pin
CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)
DETECT_ONLY_CFG = CampaignConfig(
    detect_cycles=48, persist_cycles=0, classify_persistence=False, batch_size=32
)

#: model name -> golden pinning its verdict bytes (None: no golden)
GOLDEN = {"seu": "seu_verdicts", "mbu": "mbu_verdicts", "halflatch": "halflatch_verdicts",
          "bist": None}


@dataclass(frozen=True)
class OneKeyPerBatch(FaultModel):
    """Delegates to ``inner``; raises on a batch that mixes settle keys.

    ``collapse=False`` opts out of collapsing: the engine then simulates
    every survivor itself.
    """

    inner: FaultModel
    collapse: bool = True

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    @property
    def collapsible(self) -> bool:  # type: ignore[override]
        return self.collapse and self.inner.collapsible

    def key(self) -> str:
        return self.inner.key()

    def space_size(self) -> int:
        return self.inner.space_size()

    def enumerate_candidates(self) -> np.ndarray:
        return self.inner.enumerate_candidates()

    def fast_forward_cycle(self) -> int | None:
        return self.inner.fast_forward_cycle()

    def build_context(self) -> Any:
        return self.inner.build_context()

    def prefilter(self, candidate: int, ctx) -> tuple[int, Any]:
        return self.inner.prefilter(candidate, ctx)

    def patch_for(self, candidate: int, ctx) -> Any:
        return self.inner.patch_for(candidate, ctx)

    def collapse_signature(self, candidate: int, ctx, patch) -> Any:
        return self.inner.collapse_signature(candidate, ctx, patch)

    def collapse_salt_datum(self, candidate: int, ctx, patch) -> Any:
        return self.inner.collapse_salt_datum(candidate, ctx, patch)

    def observe_batch(self, ctx, pending) -> list[Any]:
        keys = {self.inner.collapse_salt_datum(c, ctx, p) for c, p in pending}
        if len(keys) != 1:
            raise AssertionError(f"batch mixes settle keys {sorted(keys)}")
        return self.inner.observe_batch(ctx, pending)

    def classify(self, observation) -> int:
        return self.inner.classify(observation)

    def payload(self, observation):
        return self.inner.payload(observation)


@pytest.fixture(scope="module")
def models(mult_spec, s8) -> dict[str, FaultModel]:
    bist_hw = implemented_design(clb_test_design(4, register_bits=8, variant=0), s8.name)
    faults = tuple(sample_faults(bist_hw.decoded, 40, seed=5))
    inner = {
        "seu": SEUFaultModel(mult_spec, s8.name, CFG),
        "mbu": MBUFaultModel(mult_spec, s8.name, DETECT_ONLY_CFG, k=2, n_trials=160, seed=0),
        "halflatch": HalfLatchFaultModel(mult_spec, s8.name, DETECT_ONLY_CFG),
        "bist": BistCoverageModel(s8.name, faults, 4, 96),
    }
    return {name: OneKeyPerBatch(model) for name, model in inner.items()}


@pytest.fixture(scope="module")
def alone(models, mult_hw) -> dict[str, np.ndarray]:
    """Each model's verdicts with every survivor in a batch of its own."""
    verdicts = {
        name: run_sharded(replace(model, collapse=False), jobs=1, batch_size=1).verdicts
        for name, model in models.items()
    }
    for name, golden in GOLDEN.items():
        if golden is not None:
            assert_golden_verdicts(golden, verdicts[name])
    return verdicts


@pytest.mark.parametrize("name", sorted(GOLDEN))
@settings(max_examples=6, deadline=None)
@given(
    batch_size=st.sampled_from([1, 7, 32, 128]),
    permute=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    jobs=st.sampled_from([1, 2]),
    collapse=st.booleans(),
)
def test_verdicts_equal_batch_of_one(
    models, alone, name, batch_size, permute, seed, jobs, collapse
):
    model = models[name]
    candidates = model.enumerate_candidates()
    if permute:
        candidates = np.random.default_rng(seed).permutation(candidates)
    sweep = run_sharded(
        replace(model, collapse=collapse), jobs=jobs, batch_size=batch_size,
        candidates=candidates,
    )
    assert sweep.verdicts.tobytes() == alone[name].tobytes()
