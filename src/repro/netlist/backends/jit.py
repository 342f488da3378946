"""Numba-JIT bit-plane backend: the levelized schedule as one fused kernel.

The numpy bit-plane backend still pays ~20 ufunc dispatches per level
per settle pass; with the small levels a pruned campaign batch
produces, dispatch overhead rivals the actual bit work.  This backend
flattens the schedule (levels, golden mux constants, sparse override
table) into CSR arrays and hands one whole ``step()`` — stimulus
scatter, settle passes over every level, output capture, FF clock — to
a single ``@njit(cache=True, parallel=True)`` function parallelised
over the ``W`` plane words (words never interact, so the parallel
split is race-free by construction).

numba is strictly optional (``pip install .[jit]``).  The module
imports cleanly without it: the kernel below is deliberately written
in nopython-compatible plain Python (scalar loops, no object types),
so with numba absent it still *runs* — slowly — which is how the
differential tests pin its semantics on hosts without numba, and
:func:`repro.netlist.backends.resolve_backend` transparently degrades
``bitplane-jit`` to ``bitplane`` for real workloads.

Semantics are inherited, not reimplemented: patch/repair/compact and
the override bookkeeping live in :class:`BitplaneBatchSimulator`; this
class only swaps the execution engine.  Address-mask capture needs the
per-cycle machine-0 probe, so a capturing ``step()`` falls back to the
numpy bit-plane path (identical bytes, just unfused).
"""

from __future__ import annotations

import time

import numpy as np

from repro.netlist.backends.bitplane import (
    BitplaneBatchSimulator,
    _full_masks,
)

__all__ = ["BitplaneJitBatchSimulator", "NUMBA_AVAILABLE", "step_kernel"]

try:  # pragma: no cover - exercised only with the [jit] extra installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):  # type: ignore[misc]
        """No-op decorator so the kernel stays importable and testable."""
        if len(args) == 1 and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn

        return deco


#: wall-clock seconds spent in numba compilation, for bench reporting
compile_seconds: float = 0.0

_U1 = np.uint64(1)


def step_kernel(
    planes,
    settle,
    in_nodes,
    in_masks,
    lev_ptr,
    src,
    dst,
    tab_a,
    tab_x,
    inov_ptr,
    inov_pin,
    inov_w,
    inov_mask,
    inov_src,
    tabov_ptr,
    tabov_w,
    tabov_shift,
    tabov_mask,
    tabov_tab,
    out_src,
    outov_ptr,
    outov_w,
    outov_mask,
    outov_src,
    outplanes,
    ff_d,
    ff_ce,
    ff_sr,
    ff_nodes,
    unclk,
    ffov_ptr,
    ffov_field,
    ffov_w,
    ffov_mask,
    ffov_src,
    max_level,
):
    """One full simulator step over every plane word.

    Pure nopython-compatible scalar code: compiled by numba when
    available, run as plain Python otherwise.  Each ``w`` iteration
    touches only column ``w`` of every plane/output array, so the
    ``prange`` split is free of data races.
    """
    W = planes.shape[1]
    n_levels = lev_ptr.shape[0] - 1
    n_out = out_src.shape[0]
    n_ffs = ff_nodes.shape[0]
    one = np.uint64(1)
    for w in prange(W):
        # stimulus broadcast: same value for every machine in the word
        for i in range(in_nodes.shape[0]):
            planes[in_nodes[i], w] = in_masks[i]
        scratch = np.empty(max_level, np.uint64)
        for _ in range(settle):
            for k in range(n_levels):
                lo = lev_ptr[k]
                hi = lev_ptr[k + 1]
                # gather-then-scatter: the whole level computes from
                # pre-level planes before any result lands
                for j in range(lo, hi):
                    i0 = planes[src[j, 0], w]
                    i1 = planes[src[j, 1], w]
                    i2 = planes[src[j, 2], w]
                    i3 = planes[src[j, 3], w]
                    for e in range(inov_ptr[j], inov_ptr[j + 1]):
                        if inov_w[e] != w:
                            continue
                        mk = inov_mask[e]
                        v = planes[inov_src[e], w] & mk
                        p = inov_pin[e]
                        if p == 0:
                            i0 = (i0 & ~mk) | v
                        elif p == 1:
                            i1 = (i1 & ~mk) | v
                        elif p == 2:
                            i2 = (i2 & ~mk) | v
                        else:
                            i3 = (i3 & ~mk) | v
                    # 16->1 mux tree; first stage folded into constants
                    r0 = tab_a[j, 0] ^ (tab_x[j, 0] & i0)
                    r1 = tab_a[j, 1] ^ (tab_x[j, 1] & i0)
                    r2 = tab_a[j, 2] ^ (tab_x[j, 2] & i0)
                    r3 = tab_a[j, 3] ^ (tab_x[j, 3] & i0)
                    r4 = tab_a[j, 4] ^ (tab_x[j, 4] & i0)
                    r5 = tab_a[j, 5] ^ (tab_x[j, 5] & i0)
                    r6 = tab_a[j, 6] ^ (tab_x[j, 6] & i0)
                    r7 = tab_a[j, 7] ^ (tab_x[j, 7] & i0)
                    s0 = r0 ^ ((r0 ^ r1) & i1)
                    s1 = r2 ^ ((r2 ^ r3) & i1)
                    s2 = r4 ^ ((r4 ^ r5) & i1)
                    s3 = r6 ^ ((r6 ^ r7) & i1)
                    t0 = s0 ^ ((s0 ^ s1) & i2)
                    t1 = s2 ^ ((s2 ^ s3) & i2)
                    res = t0 ^ ((t0 ^ t1) & i3)
                    for e in range(tabov_ptr[j], tabov_ptr[j + 1]):
                        if tabov_w[e] != w:
                            continue
                        sh = tabov_shift[e]
                        a = (
                            ((i0 >> sh) & one)
                            | (((i1 >> sh) & one) << one)
                            | (((i2 >> sh) & one) << np.uint64(2))
                            | (((i3 >> sh) & one) << np.uint64(3))
                        )
                        v = (tabov_tab[e] >> a) & one
                        res = (res & ~tabov_mask[e]) | (v << sh)
                    scratch[j - lo] = res
                for j in range(lo, hi):
                    planes[dst[j], w] = scratch[j - lo]
        # outputs are captured post-eval, pre-clock
        for o in range(n_out):
            v = planes[out_src[o], w]
            for e in range(outov_ptr[o], outov_ptr[o + 1]):
                if outov_w[e] != w:
                    continue
                mk = outov_mask[e]
                v = (v & ~mk) | (planes[outov_src[e], w] & mk)
            outplanes[o, w] = v
        # FF clock: compute every next-state before any lands, since an
        # FF's D input may read another FF node
        news = np.empty(n_ffs, np.uint64)
        for r in range(n_ffs):
            dv = planes[ff_d[r], w]
            ce = planes[ff_ce[r], w]
            sr = planes[ff_sr[r], w]
            for e in range(ffov_ptr[r], ffov_ptr[r + 1]):
                if ffov_w[e] != w:
                    continue
                mk = ffov_mask[e]
                v = planes[ffov_src[e], w] & mk
                f = ffov_field[e]
                if f == 0:
                    dv = (dv & ~mk) | v
                elif f == 1:
                    ce = (ce & ~mk) | v
                else:
                    sr = (sr & ~mk) | v
            cur = planes[ff_nodes[r], w]
            new = cur ^ ((cur ^ dv) & ce)
            new = new & ~sr
            # lanes with a broken clock mux keep their current value
            news[r] = new ^ ((new ^ cur) & unclk[r, w])
        for r in range(n_ffs):
            planes[ff_nodes[r], w] = news[r]


_jitted_kernel = None


def _get_kernel():
    """The compiled kernel when numba is present, plain Python otherwise."""
    global _jitted_kernel, compile_seconds
    if _jitted_kernel is None:
        if NUMBA_AVAILABLE:
            t0 = time.perf_counter()
            _jitted_kernel = njit(cache=True, parallel=True)(step_kernel)
            compile_seconds += time.perf_counter() - t0
        else:
            _jitted_kernel = step_kernel
    return _jitted_kernel


class BitplaneJitBatchSimulator(BitplaneBatchSimulator):
    """Bit-plane simulator whose ``step()`` is one fused (JIT) kernel call.

    All state, patching, repair, compaction and override bookkeeping is
    inherited from :class:`BitplaneBatchSimulator`; this class compiles
    the schedule and override table into flat CSR arrays and dispatches
    the fused kernel instead of the per-level numpy loop.
    """

    def _build_gather_caches(self) -> None:
        self._jit_structs_ready = False
        super()._build_gather_caches()
        d = self.design
        # Rows in evaluation order (levels concatenated); lev_ptr marks
        # level boundaries inside the concatenation.
        sizes = np.array([rows.size for rows in self._levels], dtype=np.int64)
        self._jt_lev_ptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=self._jt_lev_ptr[1:])
        rows_concat = (
            np.concatenate(self._levels)
            if self._levels
            else np.zeros(0, dtype=np.int64)
        ).astype(np.int64)
        self._jt_rows_concat = rows_concat
        self._jt_src = d.lut_inputs[rows_concat].astype(np.int64)
        self._jt_dst = d.lut_nodes[rows_concat].astype(np.int64)
        tt = d.lut_tables[rows_concat]
        self._jt_tab_a = _full_masks(tt[:, 0::2])
        self._jt_tab_x = _full_masks(tt[:, 0::2] ^ tt[:, 1::2])
        self._jt_max_level = int(sizes.max()) if sizes.size else 1
        self._jt_in_nodes = d.input_nodes.astype(np.int64)
        self._jt_out_src = d.output_nodes.astype(np.int64)
        self._jt_ff_d = self._bp_ff_d.astype(np.int64)
        self._jt_ff_ce = self._bp_ff_ce.astype(np.int64)
        self._jt_ff_sr = self._bp_ff_sr.astype(np.int64)
        self._jt_ff_nodes = self._bp_ff_nodes.astype(np.int64)
        # Global slot of a LUT row inside the concatenation (-1: pruned)
        self._row_g = np.where(
            self._row_level >= 0,
            self._jt_lev_ptr[np.maximum(self._row_level, 0)] + self._row_slot,
            -1,
        )
        self._jit_structs_ready = True
        self._compile_jit_overrides()

    def _compile_overrides(self) -> None:
        super()._compile_overrides()
        # During _build_gather_caches the base class compiles overrides
        # before the CSR structures exist; that call is followed by an
        # explicit _compile_jit_overrides once they do.
        if getattr(self, "_jit_structs_ready", False):
            self._compile_jit_overrides()

    def _compile_jit_overrides(self) -> None:
        """Project the canonical override table into per-row CSR arrays."""
        G = self._jt_dst.shape[0]

        arr = self._ov_in
        g = self._row_g[arr[:, 1]]
        ok = g >= 0
        arr, g = arr[ok], g[ok]
        order = np.argsort(g, kind="stable")
        arr, g = arr[order], g[order]
        w, s = np.divmod(arr[:, 0], 64)
        self._jt_inov_ptr = _csr_ptr(g, G)
        self._jt_inov_pin = arr[:, 2].astype(np.int64)
        self._jt_inov_w = w.astype(np.int64)
        self._jt_inov_mask = np.left_shift(_U1, s.astype(np.uint64))
        self._jt_inov_src = arr[:, 3].astype(np.int64)

        arr = self._ov_tab
        g = self._row_g[arr[:, 1]]
        ok = g >= 0
        arr, g = arr[ok], g[ok]
        order = np.argsort(g, kind="stable")
        arr, g = arr[order], g[order]
        w, s = np.divmod(arr[:, 0], 64)
        self._jt_tabov_ptr = _csr_ptr(g, G)
        self._jt_tabov_w = w.astype(np.int64)
        self._jt_tabov_shift = s.astype(np.uint64)
        self._jt_tabov_mask = np.left_shift(_U1, self._jt_tabov_shift)
        self._jt_tabov_tab = arr[:, 2].astype(np.uint64)

        arr = self._ov_ff
        slot = self._ffrow_slot[arr[:, 1]]
        ok = slot >= 0
        arr, slot = arr[ok], slot[ok]
        order = np.argsort(slot, kind="stable")
        arr, slot = arr[order], slot[order]
        w, s = np.divmod(arr[:, 0], 64)
        self._jt_ffov_ptr = _csr_ptr(slot, self._jt_ff_nodes.shape[0])
        self._jt_ffov_field = arr[:, 2].astype(np.int64)
        self._jt_ffov_w = w.astype(np.int64)
        self._jt_ffov_mask = np.left_shift(_U1, s.astype(np.uint64))
        self._jt_ffov_src = arr[:, 3].astype(np.int64)

        arr = self._ov_out
        pos = arr[:, 1]
        order = np.argsort(pos, kind="stable")
        arr, pos = arr[order], pos[order]
        w, s = np.divmod(arr[:, 0], 64)
        self._jt_outov_ptr = _csr_ptr(pos, self._jt_out_src.shape[0])
        self._jt_outov_w = w.astype(np.int64)
        self._jt_outov_mask = np.left_shift(_U1, s.astype(np.uint64))
        self._jt_outov_src = arr[:, 2].astype(np.int64)

    def step(self, stimulus_row: np.ndarray) -> np.ndarray:
        if self._addr_capture is not None:
            # Address capture probes machine 0 between eval and clock;
            # take the unfused (byte-identical) bit-plane path.
            return super().step(stimulus_row)
        d = self.design
        self._check_stimulus(stimulus_row)
        if self._ov_dirty:
            self._compile_overrides()
        in_masks = _full_masks(stimulus_row)
        _get_kernel()(
            self._planes,
            self.settle_passes,
            self._jt_in_nodes,
            in_masks,
            self._jt_lev_ptr,
            self._jt_src,
            self._jt_dst,
            self._jt_tab_a,
            self._jt_tab_x,
            self._jt_inov_ptr,
            self._jt_inov_pin,
            self._jt_inov_w,
            self._jt_inov_mask,
            self._jt_inov_src,
            self._jt_tabov_ptr,
            self._jt_tabov_w,
            self._jt_tabov_shift,
            self._jt_tabov_mask,
            self._jt_tabov_tab,
            self._jt_out_src,
            self._jt_outov_ptr,
            self._jt_outov_w,
            self._jt_outov_mask,
            self._jt_outov_src,
            self._bp_outplanes,
            self._jt_ff_d,
            self._jt_ff_ce,
            self._jt_ff_sr,
            self._jt_ff_nodes,
            self._bp_unclk,
            self._jt_ffov_ptr,
            self._jt_ffov_field,
            self._jt_ffov_w,
            self._jt_ffov_mask,
            self._jt_ffov_src,
            self._jt_max_level,
        )
        np.right_shift(
            self._bp_outplanes[:, :, None],
            np.arange(64, dtype=np.uint64)[None, None, :],
            out=self._out_shift,
        )
        np.bitwise_and(self._out_shift, _U1, out=self._out_shift)
        self._out_buf[:] = self._out_shift.reshape(d.n_outputs, self.W * 64).T[
            : self.B
        ]
        return self._out_buf


def _csr_ptr(sorted_groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Row-pointer array for entries already sorted by group index."""
    counts = np.bincount(sorted_groups, minlength=n_groups) if sorted_groups.size else (
        np.zeros(n_groups, dtype=np.int64)
    )
    ptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr
