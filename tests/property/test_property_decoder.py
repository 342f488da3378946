"""Fuzz properties of the bitstream decoder.

The decoder's contract is *totality*: any bit pattern decodes to an
executable machine (that is what makes corrupted configurations
runnable).  These tests throw random and adversarial bitstreams at it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream import ConfigBitstream
from repro.fpga import get_device
from repro.fpga.resources import WIRES_PER_DIRECTION
from repro.netlist import BatchSimulator
from repro.place.configgen import IOBinding
from repro.place.decoder import _DRIVER_SLOTS, DecodedDesign, _Flip, decode_bitstream
from tests.utils.goldens import patch_entries
from tests.utils.live_bits_reference import reference_live_bits
from tests.utils.patch_reference import ReferencePatcher


@pytest.fixture(scope="module")
def s4dev():
    return get_device("S4")


class TestDecoderTotality:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_bitstreams_decode_and_run(self, s4dev, seed):
        rng = np.random.default_rng(seed)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=4)
        decoded.design.validate()
        sim = BatchSimulator(decoded.design)
        # Runs without exploding; outputs list may be empty (no probes).
        for _ in range(4):
            sim.step(np.zeros(0, dtype=np.uint8))

    def test_all_ones_bitstream(self, s4dev):
        bits = ConfigBitstream(
            s4dev.geometry, np.ones(s4dev.geometry.total_bits, dtype=np.uint8)
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=4)
        decoded.design.validate()
        # All-ones = every PIP on: massive contention and wire loops,
        # still simulable.
        BatchSimulator(decoded.design).step(np.zeros(0, dtype=np.uint8))

    def test_all_zeros_bitstream(self, s4dev):
        bits = ConfigBitstream(s4dev.geometry)
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=4)
        # Everything floats: half-latches everywhere, FFs unclocked.
        assert (decoded.design.ff_clocked == 0).all()
        assert len(decoded.halflatch_node) > 0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 64))
    @settings(max_examples=8, deadline=None)
    def test_random_patches_never_break_batch(self, s4dev, seed, n_bits):
        """patch_for_bit over random bits of a random config: patches
        must always apply cleanly to a batch."""
        rng = np.random.default_rng(seed)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=8)
        patches = []
        for b in rng.integers(0, s4dev.geometry.total_bits, size=n_bits):
            p = decoded.patch_for_bit(int(b))
            if p is not None:
                patches.append(p)
        if patches:
            sim = BatchSimulator(decoded.design, patches)
            sim.step(np.zeros(0, dtype=np.uint8))

    @pytest.mark.timeout(20)
    def test_patch_past_the_spare_rows_stays_fast(self, s4dev):
        """A case the fuzz above can draw: on this random configuration
        bit 20969's rewire yields more shared AND tickets than there are
        spare rows.  Materializing them once the spares run out must not
        re-walk every shared ticket per path (minutes before, now ms)."""
        rng = np.random.default_rng(551886180)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        decoded = decode_bitstream(s4dev, bits, IOBinding(), n_spare=8)
        patch = decoded.patch_for_bit(20969)
        assert patch is not None
        BatchSimulator(decoded.design, [patch]).step(np.zeros(0, dtype=np.uint8))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_live_bits_match_per_bit_screen(self, s4dev, seed):
        """The golden live-bit mask equals the per-bit screen it replaced
        on arbitrary configurations, not only on router output.  A few
        random output probes give the configuration an output cone."""
        rng = np.random.default_rng(seed)
        bits = ConfigBitstream(
            s4dev.geometry,
            rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8),
        )
        probes = [
            (int(rng.integers(s4dev.rows)), int(rng.integers(s4dev.cols)), int(rng.integers(8)))
            for _ in range(int(rng.integers(0, 4)))
        ]
        decoded = decode_bitstream(s4dev, bits, IOBinding(output_probes=probes), n_spare=4)
        assert np.array_equal(decoded.live_bits, reference_live_bits(decoded))


def _random_pair(dev, seed: int, density: float) -> tuple[DecodedDesign, ReferencePatcher]:
    """Two decodes of one random configuration (each bit set with
    probability ``density``, one to three output probes, 8 spare rows,
    input taps and net taps on random incoming wires, six of them
    carrying both): one for the table path, one under the recursive
    reference."""
    rng = np.random.default_rng(seed)
    raw = (rng.random(dev.geometry.total_bits) < density).astype(np.uint8)

    def signal() -> tuple[int, int, int]:
        return int(rng.integers(dev.rows)), int(rng.integers(dev.cols)), int(rng.integers(8))

    def incoming() -> tuple[int, int, int, int]:
        return (*signal()[:2], int(rng.integers(4)), int(rng.integers(WIRES_PER_DIRECTION)))

    probes = [signal() for _ in range(int(rng.integers(1, 4)))]
    taps = {incoming(): int(rng.integers(2)) for _ in range(24)}
    net_taps = {incoming(): signal() for _ in range(24)}
    for coords in list(taps)[:6]:
        net_taps[coords] = signal()
    io = IOBinding(input_order=["a", "b"], taps=taps, output_probes=probes, net_taps=net_taps)
    table = decode_bitstream(dev, ConfigBitstream(dev.geometry, raw), io, n_spare=8)
    ref = decode_bitstream(dev, ConfigBitstream(dev.geometry, raw.copy()), io, n_spare=8)
    return table, ReferencePatcher(ref)


def _repeated_spare_rows(dec: DecodedDesign, patch) -> list[tuple[int, int]]:
    """Pairs of spare rows in ``patch`` with identical inputs and table:
    one AND materialized twice."""
    if patch is None:
        return []
    spare = set(dec.spare_rows)
    inputs: dict[int, list] = {}
    for row, pin, src in patch.lut_inputs:
        if row in spare:
            inputs.setdefault(row, []).append((pin, src))
    tables = {row: table.tobytes() for row, table in patch.lut_tables if row in spare}
    first: dict[tuple, int] = {}
    pairs = []
    for row, ins in inputs.items():
        key = (tuple(sorted(ins)), tables.get(row))
        if key in first:
            pairs.append((first[key], row))
        first.setdefault(key, row)
    return pairs


def _assert_live_bits_match(table: DecodedDesign, ref: ReferencePatcher) -> int:
    live = np.flatnonzero(table.live_bits)
    for bit in live:
        patch = table.patch_for_bit(int(bit))
        got = patch_entries(patch)
        want = patch_entries(ref.patch_for_bit(int(bit)))
        assert repr(got) == repr(want), f"bit {int(bit)}"
        assert not _repeated_spare_rows(table, patch), f"bit {int(bit)}"
    return live.size


class TestTablePathMatchesReference:
    """The table-driven decode against the recursive re-resolution it
    replaced (``tests/utils/patch_reference.py``), patch for patch.
    Random configurations reach what router output never does: wire
    loops, contention (AND tickets), floating wires and spare-row
    exhaustion; the density sets how much of each.  Every reader of one
    AND ticket shares its spare row: no patch holds two spare rows with
    identical inputs."""

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.05, 0.1, 0.2, 0.3]))
    @settings(max_examples=8, deadline=None)
    def test_every_live_bit_matches_reference(self, s4dev, seed, density):
        table, ref = _random_pair(s4dev, seed, density)
        assert _assert_live_bits_match(table, ref) > 0

    def test_spare_exhaustion_case_matches_reference(self, s4dev):
        rng = np.random.default_rng(551886180)
        raw = rng.integers(0, 2, s4dev.geometry.total_bits).astype(np.uint8)
        table = decode_bitstream(
            s4dev, ConfigBitstream(s4dev.geometry, raw), IOBinding(), n_spare=8
        )
        ref = decode_bitstream(
            s4dev, ConfigBitstream(s4dev.geometry, raw.copy()), IOBinding(), n_spare=8
        )
        got = patch_entries(table.patch_for_bit(20969))
        assert repr(got) == repr(patch_entries(ReferencePatcher(ref).patch_for_bit(20969)))

    def test_cases_reach_loops_contention_floats_and_exhaustion(self, s4dev, monkeypatch):
        """Coverage guard for the comparison above: on two fixed
        configurations the table path cuts wire loops on the resolution
        stack, issues AND tickets, meets floating wires, runs out of
        spare rows and reads input-tapped, net-tapped and doubly tapped
        wires, each many times."""
        seen = dict(cut=0, ticket=0, floating=0, exhausted=0, tap=0, net_tap=0, both=0)
        t_wire, ticket = DecodedDesign._t_wire, _Flip.ticket
        live_rows, materialize = DecodedDesign._live_rows, DecodedDesign._materialize

        def counting_t_wire(self, wid, flip, stack):
            seen["cut"] += wid not in flip.wires and wid in stack
            return t_wire(self, wid, flip, stack)

        def counting_ticket(self, nodes):
            seen["ticket"] += 1
            return ticket(self, nodes)

        def counting_live_rows(self, wid):
            rows = live_rows(self, wid)
            seen["floating"] += not rows
            row, col, d, w = self._wire_key(wid)
            for slot, _ in rows:
                coords = (row, col, _DRIVER_SLOTS[d][slot][1], w)
                tapped = slot > 0 and coords in self.io.taps
                net_tapped = slot > 0 and coords in self.io.net_taps
                seen["tap"] += tapped
                seen["net_tap"] += net_tapped
                seen["both"] += tapped and net_tapped
            return rows

        def counting_materialize(self, value, flip, patch, spare_cursor):
            seen["exhausted"] += value < 0 and spare_cursor[0] >= len(self.spare_rows)
            return materialize(self, value, flip, patch, spare_cursor)

        monkeypatch.setattr(DecodedDesign, "_t_wire", counting_t_wire)
        monkeypatch.setattr(_Flip, "ticket", counting_ticket)
        monkeypatch.setattr(DecodedDesign, "_live_rows", counting_live_rows)
        monkeypatch.setattr(DecodedDesign, "_materialize", counting_materialize)
        for seed, density in ((2, 0.2), (3, 0.3)):
            _assert_live_bits_match(*_random_pair(s4dev, seed, density))
        assert min(seen.values()) >= 50, seen
