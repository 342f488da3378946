"""The service flag table: every flag a kind accepts is an option of that
kind's CLI, and verdict-determining flags key a job, run settings do
not."""

from __future__ import annotations

import pytest

from repro.service.schemas import _KIND_FLAGS, JobSpec, _flag_name
from tests.test_cli_surface import _subparser

#: the run settings no result key holds
RUN_SETTINGS = {"jobs", "batch_size", "checkpoint_every"}


def _spec(kind: str, flags: dict) -> JobSpec:
    design = None if kind == "bist-coverage" else "MULT4"
    return JobSpec(kind, design, "S8", flags=tuple(sorted(flags.items())))


def _base_flags(kind: str) -> dict:
    return {
        name: (0.25 if flag.type is float else 3)
        for name, flag in _KIND_FLAGS[kind].items()
    }


@pytest.mark.parametrize("kind", sorted(_KIND_FLAGS))
class TestResultKey:
    def test_every_keyed_flag_changes_the_key(self, kind):
        base = _base_flags(kind)
        keyed = [name for name, flag in _KIND_FLAGS[kind].items() if flag.keyed]
        assert keyed
        for name in keyed:
            other = dict(base, **{name: base[name] * 2})
            assert _spec(kind, other).result_key() != _spec(kind, base).result_key(), name

    def test_run_settings_leave_the_key(self, kind):
        base = _base_flags(kind)
        unkeyed = {name for name, flag in _KIND_FLAGS[kind].items() if not flag.keyed}
        assert unkeyed == RUN_SETTINGS & set(_KIND_FLAGS[kind])
        for name in unkeyed:
            other = dict(base, **{name: base[name] * 2})
            assert _spec(kind, other).result_key() == _spec(kind, base).result_key(), name
        without = {k: v for k, v in base.items() if k not in unkeyed}
        assert _spec(kind, without).result_key() == _spec(kind, base).result_key()


@pytest.mark.parametrize("kind", sorted(_KIND_FLAGS))
def test_every_flag_is_an_option_of_the_kinds_cli(kind):
    """A flag the service accepts must parse on the subprocess it runs:
    the same option, of the same type, on ``repro <kind>``."""
    options = {opt: action for action in _subparser(kind)._actions for opt in action.option_strings}
    for name, flag in _KIND_FLAGS[kind].items():
        action = options.get(_flag_name(name))
        assert action is not None, f"repro {kind} has no {_flag_name(name)}"
        assert action.type is flag.type, name
