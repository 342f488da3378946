"""Pluggable kernel backends for :class:`~repro.netlist.simulator.BatchSimulator`.

Two backends share one semantic contract — verdict bytes identical
across ``backend x jobs x collapse x retire x trace`` (enforced by the
golden-SHA registry and the differential oracle suite):

``reference``
    The uint8 kernel in ``repro.netlist.simulator``: one compiled C
    call per cycle (``repro.netlist.native``), or its numpy body where
    no C compiler is present.  Default.
``bitplane``
    64 machines packed per uint64 lane; LUTs evaluate as bitwise mux
    trees (``repro.netlist.backends.bitplane``).  Faster than
    ``reference`` on wide dense batches.

Selection is ambient, mirroring ``repro.obs``: a module-level current
backend, seeded from the ``REPRO_KERNEL_BACKEND`` environment variable
so sharded workers (fork *and* spawn) inherit the choice, scoped by the
:func:`kernel_backend` context manager.  Code that builds simulators
goes through :func:`make_simulator` / :func:`simulator_class` instead
of naming ``BatchSimulator`` directly.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.errors import NetlistError
from repro.netlist.simulator import BatchSimulator

__all__ = [
    "BACKENDS",
    "kernel_backend",
    "make_simulator",
    "resolve_backend",
    "simulator_class",
]

#: registered backend names, in documentation order
BACKENDS = ("reference", "bitplane")

_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: ambient selection; ``None`` means "defer to the environment variable"
_backend: str | None = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise NetlistError(
            f"unknown kernel backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def resolve_backend() -> str:
    """The selected backend: ambient selection, else env, else reference."""
    if _backend is not None:
        return _backend
    return _validate(os.environ.get(_ENV_VAR, "reference"))


@contextmanager
def kernel_backend(name: str) -> Iterator[None]:
    """Scope the ambient backend selection.

    Also exports ``REPRO_KERNEL_BACKEND`` for the scope so worker
    processes started inside it (fork or spawn) build their simulators
    with the same backend.
    """
    global _backend
    _validate(name)
    prev = _backend
    prev_env = os.environ.get(_ENV_VAR)
    _backend = name
    os.environ[_ENV_VAR] = name
    try:
        yield
    finally:
        _backend = prev
        if prev_env is None:
            os.environ.pop(_ENV_VAR, None)
        else:
            os.environ[_ENV_VAR] = prev_env


def simulator_class() -> type[BatchSimulator]:
    """The simulator class for the resolved backend."""
    name = resolve_backend()
    if name == "reference":
        return BatchSimulator
    from repro.netlist.backends.bitplane import BitplaneBatchSimulator

    return BitplaneBatchSimulator


def make_simulator(*args, **kwargs) -> BatchSimulator:
    """Build a simulator with the currently selected backend."""
    return simulator_class()(*args, **kwargs)
