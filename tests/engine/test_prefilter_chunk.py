"""The chunk-level pre-filter hook, ``FaultModel.prefilter_chunk``.

Three claims:

* the driver holds every hook result to its contract: one uint8 code
  per candidate, and survivors that are exactly the ``CODE_NOT_TESTED``
  candidates in chunk order; a hook that breaks either rule is a named
  :class:`CampaignError`, never a silently shifted verdict;
* the SEU override, which settles dead bits with one gather of the
  golden live-bit mask, gives the codes, survivors, patch signatures and
  settle keys of the default per-candidate loop under any chunking;
* with the override the sweep decodes each live bit once and no dead
  bit at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np
import pytest

from repro.designs import array_multiplier
from repro.engine import (
    CODE_FAIL,
    CODE_NO_EFFECT,
    CODE_NOT_TESTED,
    CODE_SKIP_STRUCTURAL,
    FaultModel,
    run_serial,
)
from repro.engine.cache import result_cache_scope
from repro.errors import CampaignError
from repro.place import implement
from repro.place.decoder import DecodedDesign
from repro.seu import CampaignConfig, run_campaign
from repro.seu.campaign import SEUFaultModel
from tests.utils.goldens import assert_golden_verdicts

GOLDEN_CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)


@dataclass(frozen=True)
class HookToy(FaultModel):
    """Every third candidate is skipped; ``broken`` picks a hook rule to break."""

    broken: str = ""
    n: int = 60

    name: ClassVar[str] = "hook-toy"

    def key(self) -> str:
        return f"hook-toy:{self.n}:{self.broken}"

    def space_size(self) -> int:
        return self.n

    def enumerate_candidates(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    def build_context(self) -> Any:
        return None

    def prefilter(self, candidate: int, ctx) -> tuple[int, Any]:
        if candidate % 3 == 0:
            return CODE_SKIP_STRUCTURAL, None
        return CODE_NOT_TESTED, None

    def prefilter_chunk(self, cands, ctx):
        codes, survivors = super().prefilter_chunk(cands, ctx)
        if self.broken == "short-codes":
            codes = codes[:-1]
        elif self.broken == "int-codes":
            codes = codes.astype(np.int64)
        elif self.broken == "list-codes":
            codes = codes.tolist()
        elif self.broken == "missing-survivor":
            survivors = survivors[1:]
        elif self.broken == "extra-survivor":
            survivors = survivors + [(int(cands[0]), None)]
        elif self.broken == "reordered-survivors":
            survivors = survivors[::-1]
        elif self.broken == "bare-ids":
            survivors = [c for c, _ in survivors]
        return codes, survivors

    def patch_for(self, candidate: int, ctx) -> int:
        return candidate

    def observe_batch(self, ctx, pending) -> list[int]:
        return [c % 2 for c, _ in pending]

    def classify(self, observation: int) -> int:
        return CODE_FAIL if observation else CODE_NO_EFFECT


class TestHookContract:
    def test_well_formed_hook_sweeps(self):
        sweep = run_serial(HookToy())
        assert sweep.count(CODE_SKIP_STRUCTURAL) == 20
        assert sweep.count(CODE_FAIL) + sweep.count(CODE_NO_EFFECT) == 40

    @pytest.mark.parametrize("broken", ["short-codes", "int-codes", "list-codes"])
    def test_codes_must_be_one_uint8_per_candidate(self, broken):
        with pytest.raises(CampaignError, match="HookToy.prefilter_chunk must return one uint8"):
            run_serial(HookToy(broken))

    @pytest.mark.parametrize(
        "broken",
        ["missing-survivor", "extra-survivor", "reordered-survivors", "bare-ids"],
    )
    def test_survivors_must_be_the_untested_candidates_in_order(self, broken):
        with pytest.raises(CampaignError, match="HookToy.prefilter_chunk survivors"):
            run_serial(HookToy(broken))


def _random_chunks(cands: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Contiguous chunks of ``cands`` with some empty and size-1 pieces."""
    cuts = [0]
    while cuts[-1] < cands.size:
        step = int(rng.choice([0, 1, 1, int(rng.integers(2, 9000))]))
        cuts.append(min(cands.size, cuts[-1] + step))
    return [cands[a:b] for a, b in zip(cuts, cuts[1:])] + [cands[:0]]


@pytest.fixture(scope="module")
def mult6_s12_hw():
    from repro.fpga import get_device

    return implement(array_multiplier(6), get_device("S12"))


class TestSEUHookEquivalence:
    """The SEU override against the default loop, chunk by random chunk."""

    @pytest.mark.parametrize("which", ["mult4_s8_stride1", "mult6_s12_stride3"])
    def test_matches_default_loop(self, which, request, mult_hw):
        hw, stride = (
            (mult_hw, 1) if which == "mult4_s8_stride1"
            else (request.getfixturevalue("mult6_s12_hw"), 3)
        )
        model = SEUFaultModel(hw.spec, hw.device.name, CampaignConfig(stride=stride))
        ctx = model.build_context()
        cands = model.enumerate_candidates()
        ref_codes, ref_surv = FaultModel.prefilter_chunk(model, cands, ctx)
        assert np.count_nonzero(ref_codes == CODE_SKIP_STRUCTURAL) > cands.size // 2
        ref_sigs = [model.collapse_signature(c, ctx, p) for c, p in ref_surv]
        ref_keys = [model.collapse_salt_datum(c, ctx, p) for c, p in ref_surv]
        for seed in range(2):
            chunks = _random_chunks(cands, np.random.default_rng(seed))
            assert any(c.size == 0 for c in chunks) and any(c.size == 1 for c in chunks)
            codes, surv = [], []
            for chunk in chunks:
                c, s = model.prefilter_chunk(chunk, ctx)
                assert c.dtype == np.uint8 and c.shape == chunk.shape
                codes.append(c)
                surv.extend(s)
            assert np.array_equal(np.concatenate(codes), ref_codes)
            assert [c for c, _ in surv] == [c for c, _ in ref_surv]
            assert [model.collapse_signature(c, ctx, p) for c, p in surv] == ref_sigs
            assert [model.collapse_salt_datum(c, ctx, p) for c, p in surv] == ref_keys

    def test_out_of_range_ids_still_raise(self, mult_hw):
        model = SEUFaultModel(mult_hw.spec, mult_hw.device.name, CampaignConfig())
        ctx = model.build_context()
        n = mult_hw.decoded.live_bits.size
        for bad in (n, n + 5, -1):
            with pytest.raises(Exception) as per_bit:
                model.prefilter(bad, ctx)
            with pytest.raises(per_bit.type):
                model.prefilter_chunk(np.array([0, bad], dtype=np.int64), ctx)


class TestDecodesFollowSurvivors:
    def test_patch_for_bit_once_per_live_candidate(self, mult_hw, monkeypatch):
        calls: Counter = Counter()
        real = DecodedDesign.patch_for_bit

        def counting(self, linear_bit):
            calls[int(linear_bit)] += 1
            return real(self, linear_bit)

        monkeypatch.setattr(DecodedDesign, "patch_for_bit", counting)
        with result_cache_scope(None):
            result = run_campaign(mult_hw, GOLDEN_CFG, jobs=1)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        cands = np.arange(0, mult_hw.device.block0_bits, GOLDEN_CFG.stride)
        live = cands[mult_hw.decoded.live_bits[cands]]
        assert sorted(calls) == live.tolist()
        assert set(calls.values()) == {1}
