"""Vectorised detect-only observation kernels.

The detect phase of every non-repairing sweep — MBU trials, half-latch
upsets, BIST configurations — is the same loop: step the batch with a
reference output trace and remember who deviated.  The compiled kernel
runs :func:`detect_failures` machine-major, like
:meth:`~repro.netlist.simulator.BatchSimulator.run_verdicts`; the numpy
body runs the lock-step loop below, which packs outputs into uint64
words so the per-cycle health check is a handful of word compares per
machine, and exits early once every machine has failed.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.simulator import KERNEL_COUNTERS, BatchSimulator, packed_outputs

__all__ = ["detect_failures", "detect_disturbed_outputs"]


def detect_failures(
    sim: BatchSimulator,
    stimulus: np.ndarray,
    ref_outputs: np.ndarray,
    cycles: int,
    retire: bool = False,
) -> np.ndarray:
    """Boolean per machine: did any output deviate within ``cycles``?

    ``ref_outputs`` is the golden ``(>= cycles, n_outputs)`` trace
    aligned with ``stimulus``.  Each machine stops at its first
    mismatch: in one foreign call per batch with the compiled kernel
    (:meth:`~repro.netlist.simulator.BatchSimulator._run_machine_major`),
    else in a lock-step loop that exits once every machine has failed.
    ``retire`` only turns on the kernel counters; the result is the
    same either way.
    """
    if sim._native is not None:
        first_error, _, _, stop = sim._run_machine_major(
            stimulus, ref_outputs, cycles, detect_only=True
        )
    else:
        first_error = _lockstep_first_errors(sim, stimulus, ref_outputs, cycles)
        stop = np.where(first_error >= 0, first_error, cycles - 1)
    if retire:
        KERNEL_COUNTERS.count_stops(stop)
    return first_error >= 0


def _lockstep_first_errors(
    sim: BatchSimulator, stimulus: np.ndarray, ref_outputs: np.ndarray, cycles: int
) -> np.ndarray:
    """Per machine, the first mismatching cycle (-1 if none) — numpy body."""
    ref_words, n_bytes, n_words = packed_outputs(ref_outputs, cycles)
    out_padded = np.zeros((sim.B, n_words * 8), dtype=np.uint8)
    out_words = out_padded.view(np.uint64)
    first_error = np.full(sim.B, -1, dtype=np.int64)
    for t in range(cycles):
        out = sim.step(stimulus[t])
        if n_bytes:
            out_padded[:, :n_bytes] = np.packbits(out, axis=1)
        mism = np.any(out_words != ref_words[t][None, :], axis=1)
        first_error[mism & (first_error < 0)] = t
        if np.all(first_error >= 0):  # all latched: nothing left to learn
            break
    return first_error


def detect_disturbed_outputs(
    sim: BatchSimulator, stimulus: np.ndarray, ref_outputs: np.ndarray, cycles: int
) -> np.ndarray:
    """Per-machine boolean mask over outputs: which ever deviated.

    No early exit — the disturbed set keeps accumulating over the full
    window (the correlation-table observation of paper section III-A).
    """
    disturbed = np.zeros((sim.B, sim.design.n_outputs), dtype=bool)
    for t in range(cycles):
        out = sim.step(stimulus[t])
        disturbed |= out != ref_outputs[t][None, :]
    return disturbed
