"""Kernel-path fixtures shared by the netlist suites.

The reference kernel runs one compiled call per cycle when a C compiler
is present and its numpy body otherwise.  Suites that pin kernel bytes
run both: the ``reference-numpy`` leg forces the fallback, and the
``reference`` leg fails outright if ``cc`` is on ``PATH`` but the
native step did not build — a silent fallback would turn it into a
second numpy leg and leave the compiled code untested.
"""

from __future__ import annotations

import shutil

import pytest

from repro.netlist import native
from repro.netlist.simulator import BatchSimulator

REFERENCE_PATHS = ["reference", "reference-numpy"]


def use_reference_path(name: str, monkeypatch) -> None:
    """Select the reference kernel's native step or its numpy body."""
    if name == "reference-numpy":
        monkeypatch.setattr(native, "_step", None)
    elif shutil.which("cc") is not None:
        assert native.kernel() is not None, "cc is on PATH but the native kernel failed"


@pytest.fixture(params=REFERENCE_PATHS)
def reference_path(request, monkeypatch):
    """Run the test once on the native step and once on the numpy body."""
    use_reference_path(request.param, monkeypatch)
    return request.param


@pytest.fixture(params=REFERENCE_PATHS)
def sim_class(request, monkeypatch):
    """The simulator class under test, one per kernel path."""
    use_reference_path(request.param, monkeypatch)
    return BatchSimulator
