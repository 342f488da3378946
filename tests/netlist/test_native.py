"""The compiled reference step: build cache and fallback rule.

The kernel bytes themselves are pinned by the oracle suites (both
reference legs); these tests cover how the shared library is found,
built and rebuilt, and what happens without a compiler.
"""

from __future__ import annotations

import shutil
import warnings

import numpy as np
import pytest

from repro.netlist import native
from repro.netlist.simulator import BatchSimulator
from tests.utils.oracle import random_compiled_design, random_patch

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty build cache (the process memo is reset too)."""
    d = tmp_path / "cache"
    d.mkdir()
    monkeypatch.setattr(native, "_cache_dir", lambda: d)
    monkeypatch.setattr(native, "_step", native._UNSET)
    return d


@pytest.fixture
def compile_calls(monkeypatch):
    """Record every compiler run (and still run it)."""
    calls = []
    real = native._compile

    def spy(cc, target):
        calls.append(target)
        real(cc, target)

    monkeypatch.setattr(native, "_compile", spy)
    return calls


def _verdicts(seed: int = 5):
    """Verdicts and raw outputs of one random batch, for path comparison."""
    rng = np.random.default_rng(seed)
    design = random_compiled_design(rng)
    patches = [random_patch(rng, design) for _ in range(6)]
    stim = rng.integers(0, 2, size=(24, design.n_inputs)).astype(np.uint8)
    golden = BatchSimulator.golden_trace(design, stim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sim = BatchSimulator(design, patches, companion=True)
    outputs = sim.run(stim)
    verdicts = sim.run_verdicts(stim, golden, 12, 12, retire=True)
    return sim, outputs, verdicts


@needs_cc
class TestBuildCache:
    def test_cache_hit_does_not_invoke_compiler(self, cache_dir, compile_calls):
        assert native._load() is not None
        assert len(compile_calls) == 1
        assert native._load() is not None
        assert len(compile_calls) == 1
        assert [p.name for p in cache_dir.iterdir()] == [native._lib_name()]

    def test_truncated_cached_library_is_rebuilt(self, cache_dir, compile_calls, tmp_path):
        good = tmp_path / "good"
        good.mkdir()
        native._compile(shutil.which("cc"), good / native._lib_name())
        full = (good / native._lib_name()).read_bytes()
        cached = cache_dir / native._lib_name()
        cached.write_bytes(full[: len(full) // 3])
        compile_calls.clear()
        assert native._load() is not None
        assert compile_calls == [cached]
        assert cached.stat().st_size == len(full)

    def test_unwritable_pycache_builds_in_temp_dir(self, monkeypatch):
        monkeypatch.setattr(native.os, "access", lambda path, mode: False)
        d = native._cache_dir()
        assert d.name != "__pycache__" and d.is_dir()

    def test_native_step_binds_and_matches_numpy(self, monkeypatch):
        sim, outputs, verdicts = _verdicts()
        assert sim._native is not None
        monkeypatch.setattr(native, "_step", None)
        sim2, outputs2, verdicts2 = _verdicts()
        assert sim2._native is None
        np.testing.assert_array_equal(outputs, outputs2)
        assert verdicts == verdicts2


    def test_plan_checks_every_array_before_binding(self, monkeypatch):
        fields = {}
        real = native.StepPlan

        def spy(fn, **kw):
            fields.update(kw)
            return real(fn, **kw)

        monkeypatch.setattr(native, "StepPlan", spy)
        _verdicts()
        real(None, **dict(fields))  # the simulator's own arrays bind
        for name, bad in (
            ("gather", fields["gather"][:-1]),
            ("v", fields["v"].astype(np.int64)),
            ("out_idx", fields["out_idx"].repeat(2)[::2]),
        ):
            with pytest.raises(ValueError, match=f"'{name}'"):
                real(None, **dict(fields, **{name: bad}))


class TestNoCompiler:
    def test_numpy_path_runs_with_one_note_per_process(self, monkeypatch, tmp_path, capsys):
        _, want_outputs, want_verdicts = _verdicts()  # native where cc exists
        empty_cache, empty_bin = tmp_path / "cache", tmp_path / "bin"
        empty_cache.mkdir()
        empty_bin.mkdir()
        monkeypatch.setattr(native, "_cache_dir", lambda: empty_cache)
        monkeypatch.setattr(native, "_step", native._UNSET)
        monkeypatch.setenv("PATH", str(empty_bin))
        capsys.readouterr()
        sim, outputs, verdicts = _verdicts()
        _verdicts()
        assert sim._native is None
        err = capsys.readouterr().err
        assert err.count("no C compiler (cc) on PATH") == 1
        assert "numpy path" in err
        np.testing.assert_array_equal(outputs, want_outputs)
        assert verdicts == want_verdicts
