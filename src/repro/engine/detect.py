"""Vectorised detect-only observation kernels.

The detect phase of every non-repairing sweep — MBU trials, half-latch
upsets, BIST configurations — is the same loop: step the batch in
lock-step with a reference output trace and remember who deviated.
The compiled reference kernel runs :func:`detect_failures` machine-major,
like :meth:`~repro.netlist.simulator.BatchSimulator.run_verdicts`; the
lock-step loop below (the numpy body and ``bitplane``) shares that
method's other tricks: outputs are packed into uint64 words so the
per-cycle health check is a handful of word compares per machine, and
the loop exits early once every machine has failed.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.simulator import KERNEL_COUNTERS, BatchSimulator

__all__ = ["detect_failures", "detect_disturbed_outputs"]


def _packed_reference(ref_outputs: np.ndarray, cycles: int, n_out: int):
    """Pack the reference trace into (cycles, W) uint64 words."""
    n_bytes = (n_out + 7) // 8
    n_words = max(1, (n_bytes + 7) // 8)
    padded = np.zeros((cycles, n_words * 8), dtype=np.uint8)
    if n_out:
        padded[:, :n_bytes] = np.packbits(ref_outputs[:cycles], axis=1)
    return padded.view(np.uint64), n_bytes, n_words


def detect_failures(
    sim: BatchSimulator,
    stimulus: np.ndarray,
    ref_outputs: np.ndarray,
    cycles: int,
    retire: bool = False,
) -> np.ndarray:
    """Boolean per machine: did any output deviate within ``cycles``?

    ``ref_outputs`` is the golden ``(>= cycles, n_outputs)`` trace
    aligned with ``stimulus``.  The failure flag latches on the first
    mismatch; the loop exits early once every machine has failed.

    A simulator with the compiled kernel runs machine-major: each
    machine stops at its own first mismatch in one foreign call
    (:meth:`~repro.netlist.simulator.BatchSimulator._run_machine_major`),
    and ``retire`` only turns on the kernel counters.  Otherwise, with
    ``retire=True``, machines whose flag has latched are compacted out
    of the lock-step batch mid-run (their remaining trajectory cannot
    change the result), so per-cycle cost tracks still-healthy machines.
    The returned array is always indexed by *original* batch slot and is
    byte-identical to the ``retire=False`` result on every path.
    """
    if sim._native is not None:
        first_error = sim._run_machine_major(
            stimulus, ref_outputs, cycles, retire=retire, detect_only=True
        )[0]
        failed = np.zeros(sim.B, dtype=bool)
        failed[sim.batch_slots] = first_error >= 0
        return failed
    n_out = sim.design.n_outputs
    ref_words, n_bytes, n_words = _packed_reference(ref_outputs, cycles, n_out)
    out_padded = np.zeros((sim.B, n_words * 8), dtype=np.uint8)
    out_words = out_padded.view(np.uint64)
    n_total = sim.B
    failed = np.zeros(n_total, dtype=bool)
    retired_at = np.full(n_total, -1, dtype=np.int64)
    t_exit = cycles - 1
    for t in range(cycles):
        out = sim.step(stimulus[t])
        if n_out:
            out_padded[:, :n_bytes] = np.packbits(out, axis=1)
        mism = np.any(out_words != ref_words[t][None, :], axis=1)
        failed[sim.batch_slots[mism]] = True
        # All latched: nothing left to learn.  Checked before compaction
        # so a batch is never compacted down to zero machines.
        if failed.all():
            t_exit = t
            break
        if retire:
            dead = failed[sim.batch_slots]
            n_dead = int(np.count_nonzero(dead))
            # Hysteresis: rebuilding the gather caches costs a few
            # batch-cycles, so only shrink once enough machines latched.
            if n_dead >= max(8, sim.B // 4):
                retired_at[sim.batch_slots[dead]] = t
                sim.compact(np.flatnonzero(~dead))
                out_padded = np.zeros((sim.B, n_words * 8), dtype=np.uint8)
                out_words = out_padded.view(np.uint64)
    if retire:
        dropped = retired_at >= 0
        KERNEL_COUNTERS.machine_cycles_saved += int(
            np.sum(t_exit - retired_at[dropped])
        )
    return failed


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
