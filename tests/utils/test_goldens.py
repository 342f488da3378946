"""Unit tests for the golden-SHA registry and its regen rewriter."""

from __future__ import annotations

import numpy as np
import pytest

from tests.utils.goldens import (
    GOLDENS,
    assert_golden,
    assert_golden_verdicts,
    golden,
    rewrite_goldens_block,
    verdict_sha,
)


class TestRegistry:
    def test_known_goldens_present(self):
        assert set(GOLDENS) == {
            "seu_verdicts",
            "halflatch_verdicts",
            "mbu_verdicts",
            "implement_mult4_s8",
            "implement_mult6_s12",
            "implement_bist_v0_s12",
            "implement_bist_v1_s12",
        }
        for sha in GOLDENS.values():
            assert len(sha) == 64 and int(sha, 16) >= 0

    def test_golden_raises_on_typo(self):
        with pytest.raises(KeyError):
            golden("seu_verdict")  # singular: a typo, not a silent pass

    def test_assert_golden_matches(self):
        assert_golden("seu_verdicts", golden("seu_verdicts"))

    def test_drift_message_names_regen_command(self):
        with pytest.raises(AssertionError, match="tests.utils.goldens --regen"):
            assert_golden("seu_verdicts", "0" * 64)

    def test_verdict_sha_is_byte_hash(self):
        arr = np.arange(8, dtype=np.uint8)
        assert verdict_sha(arr) == verdict_sha(arr.copy())
        assert verdict_sha(arr) != verdict_sha(arr[::-1].copy())
        with pytest.raises(AssertionError):
            assert_golden_verdicts("seu_verdicts", arr)


class TestRewrite:
    SOURCE = (
        "header\n"
        "# --- GOLDENS BEGIN (autogenerated - edit via --regen) ---\n"
        "GOLDENS = {\n"
        '    "old": "aa",\n'
        "}\n"
        "# --- GOLDENS END ---\n"
        "footer\n"
    )

    def test_rewrites_block_only(self):
        out = rewrite_goldens_block(self.SOURCE, {"b": "22", "a": "11"})
        assert out.startswith("header\n") and out.endswith("footer\n")
        assert '"a": "11",' in out and '"b": "22",' in out
        assert '"old"' not in out
        # Keys are emitted sorted, and the markers survive a second pass.
        assert out.index('"a"') < out.index('"b"')
        again = rewrite_goldens_block(out, {"a": "11", "b": "22"})
        assert again == out

    def test_missing_markers_raise(self):
        with pytest.raises(ValueError, match="markers"):
            rewrite_goldens_block("no markers here", {})

    def test_real_module_block_parses(self):
        # The real file must round-trip through its own rewriter.
        import tests.utils.goldens as mod

        with open(mod.__file__, encoding="utf-8") as fh:
            source = fh.read()
        assert rewrite_goldens_block(source, dict(GOLDENS)) == source
