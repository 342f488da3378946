"""Provenance name of the simulator kernel.

There is one kernel, :class:`~repro.netlist.simulator.BatchSimulator`:
its compiled C step where a C compiler exists, its numpy body otherwise,
with identical bytes.  :func:`resolve_backend` stays only because the
committed benchmark harness (``perfbench/``) imports it for its
provenance field; the next change to that harness drops the import and
this module with it (ROADMAP item 4).
"""

from __future__ import annotations

__all__ = ["resolve_backend"]


def resolve_backend() -> str:
    """The kernel's provenance name: always ``"reference"``."""
    return "reference"
