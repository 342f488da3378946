"""Persistent-error traces (paper Figure 7).

Figure 7 shows a counter whose high bit upsets around cycle 502: after
the upset the actual value never matches the expected one again, even
though scrubbing restored the configuration — only a reset
resynchronises.  :func:`persistent_error_trace` reproduces that
experiment for any design and fault bit, returning the expected/actual
output-word series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CampaignError
from repro.netlist.simulator import BatchSimulator
from repro.place.flow import HardwareDesign

__all__ = ["PersistenceTrace", "persistent_error_trace"]


@dataclass
class PersistenceTrace:
    """Expected vs actual output words around one injected fault."""

    inject_cycle: int
    repair_cycle: int
    expected: np.ndarray  # (cycles,) uint64 output words
    actual: np.ndarray  # (cycles,) uint64
    first_error_cycle: int  # -1 if none
    recovered: bool  # outputs re-matched after repair

    @property
    def persistent(self) -> bool:
        return self.first_error_cycle >= 0 and not self.recovered


def _words(outputs: np.ndarray) -> np.ndarray:
    """Pack per-cycle output bit vectors into integers (LSB = bit 0)."""
    weights = (1 << np.arange(outputs.shape[-1], dtype=np.uint64)).astype(np.uint64)
    return (outputs.astype(np.uint64) @ weights).astype(np.uint64)


def persistent_error_trace(
    hw: HardwareDesign,
    fault_bit: int,
    inject_cycle: int = 502,
    repair_after: int = 24,
    total_cycles: int = 1024,
    seed: int = 0,
) -> PersistenceTrace:
    """Inject ``fault_bit`` at ``inject_cycle``, scrub ``repair_after``
    cycles later, and record expected-vs-actual output words throughout.
    """
    if inject_cycle + repair_after >= total_cycles:
        raise CampaignError("trace window too small for inject + repair")
    patch = hw.decoded.patch_for_bit(fault_bit)
    if patch is None:
        raise CampaignError(f"bit {fault_bit} does not alter the decoded design")

    design = hw.decoded.design
    stim = hw.spec.stimulus(total_cycles, seed)
    golden = BatchSimulator.golden_trace(design, stim)
    expected = _words(golden.outputs)

    sim = BatchSimulator(design)  # starts clean; fault applied mid-run
    actual = np.zeros(total_cycles, dtype=np.uint64)
    injected = False
    repaired = False
    repair_cycle = inject_cycle + repair_after
    for t in range(total_cycles):
        if t == inject_cycle and not injected:
            sim._apply_patch(0, patch)
            injected = True
        if t == repair_cycle and not repaired:
            sim.repair_machine(0)
            repaired = True
        out = sim.step(stim[t])
        actual[t] = _words(out)[0]

    errors = np.flatnonzero(actual != expected)
    first_error = int(errors[0]) if errors.size else -1
    tail = slice(repair_cycle + 8, total_cycles)
    recovered = bool(np.array_equal(actual[tail], expected[tail]))
    return PersistenceTrace(
        inject_cycle=inject_cycle,
        repair_cycle=repair_cycle,
        expected=expected,
        actual=actual,
        first_error_cycle=first_error,
        recovered=recovered,
    )
