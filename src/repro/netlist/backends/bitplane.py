"""Bit-plane kernel backend: 64 machines per uint64 lane.

The reference kernel keeps node values as a ``(B, n_nodes)`` uint8
matrix and pays one byte of memory traffic per machine per operand.
This backend transposes and packs that matrix into ``(n_nodes, W)``
uint64 *planes* (``W = ceil(B/64)``): machine ``b`` is bit ``b % 64``
of word ``b // 64``, so one bitwise word op advances 64 machines at
once.

A 4-input LUT evaluates as a mux tree of bitwise ops over its 16
truth-table bits.  Because almost every machine in a batch shares the
*golden* configuration, the table bits are compiled into broadcast
constant masks (0 / all-ones per level row) and each mux stage is the
masked-merge identity ``sel(a, b, m) = a ^ ((a ^ b) & m)`` — three word
ops per stage, with the first stage folded to two because both sides
are constants.  Per-machine hardware differences (patched LUT inputs or
tables, FF field rewires, output rebinds) are applied afterwards as
sparse per-lane fixups via unbuffered ``np.bitwise_*.at`` scatters, so
the cost of faults scales with the number of patch entries, not with
``B × n_nodes``.

Semantics are byte-identical to :class:`BatchSimulator` by
construction: the same levelized gather-then-scatter order, settle
passes, FF clock-enable/set-reset priority, repair/compact behaviour
and address-capture timing — pinned by the differential oracle suite
and the golden-SHA registry.  Node values must be strictly 0/1 (the
repo-wide invariant); the packed form cannot represent anything else,
so non-binary stimulus raises instead of silently diverging.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.netlist.compiled import NodeKind
from repro.netlist.simulator import BatchSimulator

__all__ = ["BitplaneBatchSimulator", "pack_lanes", "unpack_lanes"]

#: bit index of each lane inside a word (uint64 so shifts stay uint64)
BIT_WEIGHTS = np.arange(64, dtype=np.uint64)

_U1 = np.uint64(1)
_U0 = np.uint64(0)

#: weights turning a 16-entry 0/1 truth table into its packed integer
_TABLE_WEIGHTS = np.left_shift(np.int64(1), np.arange(16, dtype=np.int64))


def pack_lanes_portable(bits: np.ndarray) -> np.ndarray:
    """Shift-based :func:`pack_lanes`: endianness-free, any platform."""
    B, n = bits.shape
    W = (B + 63) // 64
    padded = np.zeros((W * 64, n), dtype=np.uint64)
    padded[:B] = bits
    lanes = padded.reshape(W, 64, n) << BIT_WEIGHTS[None, :, None]
    return np.ascontiguousarray(np.bitwise_or.reduce(lanes, axis=1).T)


def unpack_lanes_portable(planes: np.ndarray, B: int) -> np.ndarray:
    """Shift-based :func:`unpack_lanes`: endianness-free, any platform."""
    n, W = planes.shape
    bits = (planes[:, :, None] >> BIT_WEIGHTS[None, None, :]) & _U1
    return bits.reshape(n, W * 64).T[:B].astype(np.uint8)


def _pack_lanes_le(bits: np.ndarray) -> np.ndarray:
    """packbits fast path; valid only where uint64 words are little-endian."""
    B, n = bits.shape
    W = (B + 63) // 64
    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
    out = np.zeros((n, W * 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _unpack_lanes_le(planes: np.ndarray, B: int) -> np.ndarray:
    bits = np.unpackbits(
        np.ascontiguousarray(planes).view(np.uint8), axis=1, bitorder="little"
    )
    return np.ascontiguousarray(bits[:, :B].T)


# pack_lanes packs a (B, n) 0/1 matrix into (n, W) uint64 lane planes:
# machine b is bit b % 64 of word b // 64; padding lanes of the last
# word are zero.  unpack_lanes is the exact inverse.  The packbits view
# trick is only correct where uint64 byte order matches the bit order
# packbits emits, i.e. little-endian hosts; others take the shift path.
if sys.byteorder == "little":
    pack_lanes = _pack_lanes_le
    unpack_lanes = _unpack_lanes_le
else:  # pragma: no cover - big-endian host
    pack_lanes = pack_lanes_portable
    unpack_lanes = unpack_lanes_portable


def _full_masks(bits: np.ndarray) -> np.ndarray:
    """0/1 array -> uint64 broadcast masks (0 -> 0, 1 -> all-ones)."""
    return _U0 - bits.astype(np.uint64)


class BitplaneBatchSimulator(BatchSimulator):
    """Drop-in :class:`BatchSimulator` with uint64 bit-plane state.

    The per-machine *hardware* arrays (``lut_inputs``, ``lut_tables``,
    FF fields, ``const_values``, ``output_nodes``) stay in the base
    class's dense per-machine form — patch application, repair and
    compaction reuse the proven base logic — and the plane kernel is
    derived from them: golden-configuration constants for the broadcast
    path plus a sparse override table built by diffing each broken
    machine against the golden arrays.

    :attr:`values` is a read-only materialisation (a fresh ``(B,
    n_nodes)`` uint8 array per access); code that needs to *write*
    node state directly (the interactive testbed) should stay on the
    reference backend.
    """

    # -- state allocation --------------------------------------------------

    def _alloc_state(self) -> None:
        d = self.design
        self.W = (self.B + 63) // 64
        self._planes = np.zeros((d.n_nodes, self.W), dtype=np.uint64)

    @property
    def values(self) -> np.ndarray:  # type: ignore[override]
        """Materialised ``(B, n_nodes)`` uint8 node values (read-only)."""
        return unpack_lanes(self._planes, self.B)

    def _machine0_values(self) -> np.ndarray:
        return (self._planes[:, 0] & _U1).astype(np.uint8)

    # -- cache construction ------------------------------------------------

    def _build_gather_caches(self) -> None:
        d = self.design
        B = self.B
        self.W = W = (B + 63) // 64
        self._planes_flat = self._planes.reshape(-1)

        # Row/position maps: overrides address per-level buffer slots.
        # -1 marks rows pruned by active_nodes (never evaluated).
        self._row_level = np.full(d.n_luts, -1, dtype=np.int64)
        self._row_slot = np.full(d.n_luts, -1, dtype=np.int64)
        for k, rows in enumerate(self._levels):
            self._row_level[rows] = k
            self._row_slot[rows] = np.arange(rows.size)
        self._ffrow_slot = np.full(d.n_ffs, -1, dtype=np.int64)
        self._ffrow_slot[self._ff_rows] = np.arange(self._ff_rows.size)

        # Per-level golden structures and work buffers.
        self._bp_src: list[np.ndarray] = []  # intp (L*4,) operand nodes
        self._bp_dst: list[np.ndarray] = []  # intp (L,) destination nodes
        self._bp_A: list[np.ndarray] = []  # uint64 (L, 8, 1) table constants
        self._bp_X: list[np.ndarray] = []  # uint64 (L, 8, 1) pair-xor constants
        self._bp_ops2: list[np.ndarray] = []  # uint64 (L*4, W) operand planes
        self._bp_ops3: list[np.ndarray] = []  # (L, 4, W) view of ops2
        self._bp_ops_flat: list[np.ndarray] = []  # flat view of ops2
        self._bp_b8: list[np.ndarray] = []
        self._bp_b4: list[np.ndarray] = []
        self._bp_b2: list[np.ndarray] = []
        self._bp_b1: list[np.ndarray] = []
        self._bp_b1_flat: list[np.ndarray] = []
        for rows in self._levels:
            n = int(rows.size)
            self._bp_src.append(d.lut_inputs[rows].reshape(-1).astype(np.intp))
            self._bp_dst.append(d.lut_nodes[rows].astype(np.intp))
            tt = d.lut_tables[rows]  # (L, 16) of 0/1
            self._bp_A.append(_full_masks(tt[:, 0::2])[:, :, None])
            self._bp_X.append(_full_masks(tt[:, 0::2] ^ tt[:, 1::2])[:, :, None])
            ops2 = np.empty((n * 4, W), dtype=np.uint64)
            self._bp_ops2.append(ops2)
            self._bp_ops3.append(ops2.reshape(n, 4, W))
            self._bp_ops_flat.append(ops2.reshape(-1))
            self._bp_b8.append(np.empty((n, 8, W), dtype=np.uint64))
            self._bp_b4.append(np.empty((n, 4, W), dtype=np.uint64))
            self._bp_b2.append(np.empty((n, 2, W), dtype=np.uint64))
            b1 = np.empty((n, W), dtype=np.uint64)
            self._bp_b1.append(b1)
            self._bp_b1_flat.append(b1.reshape(-1))
        # active_nodes pruning can empty a level entirely; skip those.
        self._bp_live_levels = [
            k for k, rows in enumerate(self._levels) if rows.size
        ]

        # FF golden structures and buffers.
        rows = self._ff_rows
        R = int(rows.size)
        self._bp_ff_d = d.ff_d[rows].astype(np.intp)
        self._bp_ff_ce = d.ff_ce[rows].astype(np.intp)
        self._bp_ff_sr = d.ff_sr[rows].astype(np.intp)
        self._bp_ff_nodes = d.ff_nodes[rows].astype(np.intp)
        self._fb_d = np.empty((R, W), dtype=np.uint64)
        self._fb_ce = np.empty((R, W), dtype=np.uint64)
        self._fb_sr = np.empty((R, W), dtype=np.uint64)
        self._fb_cur = np.empty((R, W), dtype=np.uint64)
        self._fb_new = np.empty((R, W), dtype=np.uint64)
        self._fb_tmp = np.empty((R, W), dtype=np.uint64)

        # Output gather structures (golden bindings; overrides fix lanes).
        self._bp_out_src = d.output_nodes.astype(np.intp)
        self._bp_outplanes = np.empty((d.n_outputs, W), dtype=np.uint64)
        self._bp_outplanes_flat = self._bp_outplanes.reshape(-1)
        self._out_shift = np.empty((d.n_outputs, W, 64), dtype=np.uint64)
        self._out_buf = np.empty((B, d.n_outputs), dtype=np.uint8)
        self._eq_buf = np.empty((d.n_nodes, W), dtype=np.uint64)

        # Golden CONST partition (repair reasserts these per machine).
        const_kind = d.node_kind == int(NodeKind.CONST)
        self._const0_nodes = np.flatnonzero(const_kind & (d.const_values == 0))
        self._const1_nodes = np.flatnonzero(const_kind & (d.const_values != 0))

        self._rebuild_unclocked()
        self._scan_all_overrides()
        self._compile_overrides()
        self._caches_built = True

    def _rebuild_unclocked(self) -> None:
        """(R, W) mask: lanes whose FF clock mux is broken keep state."""
        rows = self._ff_rows
        self._bp_unclk = pack_lanes((self.ff_clocked[:, rows] != 1).astype(np.uint8))

    # -- the sparse override table -----------------------------------------
    #
    # Canonical entries are derived by diffing each broken machine's
    # hardware arrays against the golden design — the base class already
    # normalised patch application (last write wins), so the diff is the
    # exact per-lane difference the plane kernel must reproduce.

    def _scan_all_overrides(self) -> None:
        """Whole-batch diffs against the golden arrays, one numpy pass each.

        Canonical entries are int64 matrices (machine in column 0) so
        per-machine refresh is a boolean-mask filter plus a concat.
        """
        d = self.design
        ms, rows, pins = np.nonzero(self.lut_inputs != d.lut_inputs[None])
        self._ov_in = np.stack(
            [ms, rows, pins, self.lut_inputs[ms, rows, pins]], axis=1
        ).astype(np.int64)
        ms, rows = np.nonzero(np.any(self.lut_tables != d.lut_tables[None], axis=2))
        tab16 = self.lut_tables[ms, rows].astype(np.int64) @ _TABLE_WEIGHTS
        self._ov_tab = np.stack([ms, rows, tab16], axis=1).astype(np.int64)
        parts = []
        for fld, mine, gold in (
            (0, self.ff_d, d.ff_d),
            (1, self.ff_ce, d.ff_ce),
            (2, self.ff_sr, d.ff_sr),
        ):
            ms, rows = np.nonzero(mine != gold[None])
            parts.append(
                np.stack(
                    [ms, rows, np.full(ms.size, fld), mine[ms, rows]], axis=1
                ).astype(np.int64)
            )
        self._ov_ff = np.concatenate(parts, axis=0)
        ms, poss = np.nonzero(self.output_nodes != d.output_nodes[None])
        self._ov_out = np.stack(
            [ms, poss, self.output_nodes[ms, poss]], axis=1
        ).astype(np.int64)

    def _machine_overrides(self, m: int):
        """One machine's canonical override entries (same column layout)."""
        d = self.design
        rows, pins = np.nonzero(self.lut_inputs[m] != d.lut_inputs)
        ov_in = np.stack(
            [np.full(rows.size, m), rows, pins, self.lut_inputs[m, rows, pins]],
            axis=1,
        ).astype(np.int64)
        rows = np.flatnonzero(np.any(self.lut_tables[m] != d.lut_tables, axis=1))
        tab16 = self.lut_tables[m, rows].astype(np.int64) @ _TABLE_WEIGHTS
        ov_tab = np.stack([np.full(rows.size, m), rows, tab16], axis=1).astype(
            np.int64
        )
        parts = []
        for fld, mine, gold in (
            (0, self.ff_d, d.ff_d),
            (1, self.ff_ce, d.ff_ce),
            (2, self.ff_sr, d.ff_sr),
        ):
            rr = np.flatnonzero(mine[m] != gold)
            parts.append(
                np.stack(
                    [np.full(rr.size, m), rr, np.full(rr.size, fld), mine[m, rr]],
                    axis=1,
                ).astype(np.int64)
            )
        ov_ff = np.concatenate(parts, axis=0)
        poss = np.flatnonzero(self.output_nodes[m] != d.output_nodes)
        ov_out = np.stack(
            [np.full(poss.size, m), poss, self.output_nodes[m, poss]], axis=1
        ).astype(np.int64)
        return ov_in, ov_tab, ov_ff, ov_out

    def _compile_overrides(self) -> None:
        """Turn canonical override entries into per-site scatter arrays.

        Fully vectorised: repairs mark the table dirty and this runs at
        the next kernel entry, so its cost must stay O(entries) numpy
        work even when invoked once per repaired cycle.
        """
        self._ov_dirty = False
        W = self.W
        n_levels = len(self._levels)

        arr = self._ov_in
        lev = self._row_level[arr[:, 1]]
        ok = lev >= 0  # rows pruned by active_nodes are never evaluated
        arr, lev = arr[ok], lev[ok]
        slot = self._row_slot[arr[:, 1]]
        w, s = np.divmod(arr[:, 0], 64)
        order = np.argsort(lev, kind="stable")
        lev = lev[order]
        idx = ((slot * 4 + arr[:, 2]) * W + w)[order].astype(np.intp)
        srcf = (arr[:, 3] * W + w)[order].astype(np.intp)
        mask = np.left_shift(_U1, s[order].astype(np.uint64))
        b = np.searchsorted(lev, np.arange(n_levels + 1))
        self._ovi_idx = [idx[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovi_src = [srcf[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovi_mask = [mask[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovi_not = [~mk for mk in self._ovi_mask]

        arr = self._ov_tab
        lev = self._row_level[arr[:, 1]]
        ok = lev >= 0
        arr, lev = arr[ok], lev[ok]
        slot = self._row_slot[arr[:, 1]]
        w, s = np.divmod(arr[:, 0], 64)
        order = np.argsort(lev, kind="stable")
        lev, slot, w, s = lev[order], slot[order], w[order], s[order]
        tab = arr[:, 2][order].astype(np.uint64)
        idx = (slot * W + w).astype(np.intp)
        opi = (((slot * 4)[:, None] + np.arange(4)[None, :]) * W + w[:, None]).astype(
            np.intp
        )
        shift = s.astype(np.uint64)
        mask = np.left_shift(_U1, shift)
        b = np.searchsorted(lev, np.arange(n_levels + 1))
        self._ovt_idx = [idx[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovt_op_idx = [opi[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovt_shift = [shift[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovt_tab = [tab[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovt_mask = [mask[b[k] : b[k + 1]] for k in range(n_levels)]
        self._ovt_not = [~mk for mk in self._ovt_mask]

        arr = self._ov_ff
        slot = self._ffrow_slot[arr[:, 1]]
        ok = slot >= 0  # rows pruned by active_nodes
        arr, slot = arr[ok], slot[ok]
        w, s = np.divmod(arr[:, 0], 64)
        fld = arr[:, 2]
        order = np.argsort(fld, kind="stable")
        fld = fld[order]
        idx = (slot * W + w)[order].astype(np.intp)
        srcf = (arr[:, 3] * W + w)[order].astype(np.intp)
        mask = np.left_shift(_U1, s[order].astype(np.uint64))
        b = np.searchsorted(fld, np.arange(4))
        self._ovf_idx = [idx[b[f] : b[f + 1]] for f in range(3)]
        self._ovf_src = [srcf[b[f] : b[f + 1]] for f in range(3)]
        self._ovf_mask = [mask[b[f] : b[f + 1]] for f in range(3)]
        self._ovf_not = [~mk for mk in self._ovf_mask]

        arr = self._ov_out
        w, s = np.divmod(arr[:, 0], 64)
        self._ovo_idx = (arr[:, 1] * W + w).astype(np.intp)
        self._ovo_src = (arr[:, 2] * W + w).astype(np.intp)
        self._ovo_mask = np.left_shift(_U1, s.astype(np.uint64))
        self._ovo_not = ~self._ovo_mask

    def _refresh_machine_caches(self, m: int | None = None) -> None:
        if m is None:
            # Full rebuild happens through _build_gather_caches at
            # construction/compaction; nothing extra to do here.
            self._rebuild_unclocked()
            self._scan_all_overrides()
            self._compile_overrides()
            return
        # One machine changed (mid-run patch or repair): drop its
        # entries, rescan just that machine, and leave recompilation to
        # the next kernel entry — repairs arrive in bursts at phase
        # boundaries, and compiling once per burst instead of once per
        # machine keeps repair storms O(B) instead of O(B^2).
        ov_in, ov_tab, ov_ff, ov_out = self._machine_overrides(m)
        self._ov_in = np.concatenate([self._ov_in[self._ov_in[:, 0] != m], ov_in])
        self._ov_tab = np.concatenate([self._ov_tab[self._ov_tab[:, 0] != m], ov_tab])
        self._ov_ff = np.concatenate([self._ov_ff[self._ov_ff[:, 0] != m], ov_ff])
        self._ov_out = np.concatenate([self._ov_out[self._ov_out[:, 0] != m], ov_out])
        self._ov_dirty = True
        rows = self._ff_rows
        if rows.size:
            w, b = divmod(m, 64)
            bit = _U1 << np.uint64(b)
            col = self._bp_unclk[:, w]
            col &= ~bit
            col |= np.where(self.ff_clocked[m, rows] != 1, bit, _U0)

    # -- state transitions --------------------------------------------------

    def reset(self) -> None:
        d = self.design
        vals = np.empty((self.B, d.n_nodes), dtype=np.uint8)
        if self._initial_values is not None:
            vals[:] = self._initial_values[None, :]
        else:
            vals[:] = 0
            if d.n_ffs:
                vals[np.arange(self.B)[:, None], d.ff_nodes[None, :]] = self.ff_init
        vals[:, self._const_mask] = self.const_values[:, self._const_mask]
        self._planes[:] = pack_lanes(vals)

    def _restore_const_state(self, m: int, const_only: np.ndarray) -> None:
        w, b = divmod(m, 64)
        bit = _U1 << np.uint64(b)
        self._planes[self._const0_nodes, w] &= ~bit
        self._planes[self._const1_nodes, w] |= bit

    def _compact_state(self, keep: np.ndarray) -> None:
        self._planes = pack_lanes(unpack_lanes(self._planes, self.B)[keep])

    # -- execution ----------------------------------------------------------

    def _eval_combinational(self) -> None:
        if self._ov_dirty:
            self._compile_overrides()
        planes = self._planes
        pf = self._planes_flat
        for _ in range(self.settle_passes):
            for k in self._bp_live_levels:
                ops2 = self._bp_ops2[k]
                # Golden operand gather: whole level before any scatter,
                # so schedule-violating patched reads see pre-level
                # values exactly as in the reference kernel.
                np.take(planes, self._bp_src[k], axis=0, out=ops2)
                idx = self._ovi_idx[k]
                if idx.size:
                    opsf = self._bp_ops_flat[k]
                    np.bitwise_and.at(opsf, idx, self._ovi_not[k])
                    np.bitwise_or.at(
                        opsf, idx, pf[self._ovi_src[k]] & self._ovi_mask[k]
                    )
                ops = self._bp_ops3[k]
                # Mux tree over the 16 golden table bits: stage one is
                # constant-vs-constant, so it folds to two ops.
                b8 = self._bp_b8[k]
                np.bitwise_and(self._bp_X[k], ops[:, 0][:, None, :], out=b8)
                np.bitwise_xor(b8, self._bp_A[k], out=b8)
                b4 = self._bp_b4[k]
                r0, r1 = b8[:, 0::2], b8[:, 1::2]
                np.bitwise_xor(r0, r1, out=b4)
                np.bitwise_and(b4, ops[:, 1][:, None, :], out=b4)
                np.bitwise_xor(b4, r0, out=b4)
                b2 = self._bp_b2[k]
                s0, s1 = b4[:, 0::2], b4[:, 1::2]
                np.bitwise_xor(s0, s1, out=b2)
                np.bitwise_and(b2, ops[:, 2][:, None, :], out=b2)
                np.bitwise_xor(b2, s0, out=b2)
                b1 = self._bp_b1[k]
                u0, u1 = b2[:, 0], b2[:, 1]
                np.bitwise_xor(u0, u1, out=b1)
                np.bitwise_and(b1, ops[:, 3], out=b1)
                np.bitwise_xor(b1, u0, out=b1)
                tidx = self._ovt_idx[k]
                if tidx.size:
                    # Patched-table lanes: recompose that lane's 4-bit
                    # address from the (already input-fixed) operand
                    # planes and index the machine's own table.
                    opsf = self._bp_ops_flat[k]
                    opi = self._ovt_op_idx[k]
                    shift = self._ovt_shift[k]
                    addr = (
                        ((opsf[opi[:, 0]] >> shift) & _U1)
                        | (((opsf[opi[:, 1]] >> shift) & _U1) << _U1)
                        | (((opsf[opi[:, 2]] >> shift) & _U1) << np.uint64(2))
                        | (((opsf[opi[:, 3]] >> shift) & _U1) << np.uint64(3))
                    )
                    val = (self._ovt_tab[k] >> addr) & _U1
                    b1f = self._bp_b1_flat[k]
                    np.bitwise_and.at(b1f, tidx, self._ovt_not[k])
                    np.bitwise_or.at(b1f, tidx, val << shift)
                planes[self._bp_dst[k]] = b1

    def _clock_ffs(self) -> None:
        if self._ff_rows.size == 0:
            return
        if self._ov_dirty:
            self._compile_overrides()
        planes = self._planes
        pf = self._planes_flat
        np.take(planes, self._bp_ff_d, axis=0, out=self._fb_d)
        np.take(planes, self._bp_ff_ce, axis=0, out=self._fb_ce)
        np.take(planes, self._bp_ff_sr, axis=0, out=self._fb_sr)
        np.take(planes, self._bp_ff_nodes, axis=0, out=self._fb_cur)
        for fld, buf in ((0, self._fb_d), (1, self._fb_ce), (2, self._fb_sr)):
            idx = self._ovf_idx[fld]
            if idx.size:
                bf = buf.reshape(-1)
                np.bitwise_and.at(bf, idx, self._ovf_not[fld])
                np.bitwise_or.at(
                    bf, idx, pf[self._ovf_src[fld]] & self._ovf_mask[fld]
                )
        new, tmp = self._fb_new, self._fb_tmp
        # new = cur, then D where CE, then 0 where SR, then cur where
        # the clock mux is broken — the reference FF priority exactly.
        np.bitwise_xor(self._fb_cur, self._fb_d, out=new)
        np.bitwise_and(new, self._fb_ce, out=new)
        np.bitwise_xor(new, self._fb_cur, out=new)
        np.bitwise_not(self._fb_sr, out=tmp)
        np.bitwise_and(new, tmp, out=new)
        np.bitwise_xor(new, self._fb_cur, out=tmp)
        np.bitwise_and(tmp, self._bp_unclk, out=tmp)
        np.bitwise_xor(new, tmp, out=new)
        planes[self._bp_ff_nodes] = new

    def _gather_outputs(self) -> np.ndarray:
        if self._ov_dirty:
            self._compile_overrides()
        d = self.design
        np.take(self._planes, self._bp_out_src, axis=0, out=self._bp_outplanes)
        if self._ovo_idx.size:
            opf = self._bp_outplanes_flat
            np.bitwise_and.at(opf, self._ovo_idx, self._ovo_not)
            np.bitwise_or.at(
                opf, self._ovo_idx, self._planes_flat[self._ovo_src] & self._ovo_mask
            )
        np.right_shift(
            self._bp_outplanes[:, :, None], BIT_WEIGHTS[None, None, :], out=self._out_shift
        )
        np.bitwise_and(self._out_shift, _U1, out=self._out_shift)
        self._out_buf[:] = self._out_shift.reshape(d.n_outputs, self.W * 64).T[: self.B]
        return self._out_buf

    def step(self, stimulus_row: np.ndarray) -> np.ndarray:
        self._check_stimulus(stimulus_row)
        d = self.design
        if d.n_inputs:
            self._planes[d.input_nodes] = _full_masks(stimulus_row)[:, None]
        self._eval_combinational()
        out = self._gather_outputs()
        if self._addr_capture is not None:
            self._addr_capture.append(self._machine0_addr_row())
        self._clock_ffs()
        return out

    # -- retire support ------------------------------------------------------

    def _machines_equal_companion(self, n_live: int) -> np.ndarray:
        wc, bc = divmod(self.B - 1, 64)
        comp = (self._planes[:, wc] >> np.uint64(bc)) & _U1
        np.bitwise_xor(self._planes, _full_masks(comp)[:, None], out=self._eq_buf)
        neq_words = np.bitwise_or.reduce(self._eq_buf, axis=0)  # (W,)
        neq = (neq_words[:, None] >> BIT_WEIGHTS[None, :]) & _U1
        return neq.reshape(-1)[:n_live] == 0
