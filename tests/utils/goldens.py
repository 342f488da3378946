"""Single source of truth for the pinned golden verdict SHAs.

The campaign goldens (captured from the pre-engine implementation,
MULT4 on S8) pin verdict *bytes*: any refactor, shrinker, adapter or —
since the observability layer — tracing flag must reproduce them
exactly.  Tests read them via :func:`golden` / :func:`assert_golden`
instead of pasting hex literals, so when a golden legitimately moves
(a deliberate semantic change) there is exactly one place to update:

    PYTHONPATH=src python -m tests.utils.goldens --regen

recomputes every golden from a serial reference run and rewrites the
``GOLDENS`` block below in place.  A drift failure's message names that
command, so "the SHA changed" is never a dead end.
"""

from __future__ import annotations

import hashlib
import re

# --- GOLDENS BEGIN (autogenerated - edit via --regen) ---
GOLDENS = {
    "halflatch_verdicts": "3edf712d36d1adfc5011d23c2b9ba1670f4eca2d20bdc794048e8e983d30119b",
    "implement_bist_v0_s12": "b65ec3ec48d549a56dfe66aa68475d586bd2f9159106ac1e06af8d86b35bb186",
    "implement_bist_v1_s12": "0b764bfc6f3ad0b62f70fdf62f017072ffaa595d3b6280f5460deeff57aa63dd",
    "implement_mult4_s8": "1296f7c537d9eeb06790f6fb46b4f9f2647fc9746a6b7a92dca0088a17470ee0",
    "implement_mult6_s12": "ca451942a1ef42713a62d043385237767b2d61d48367014ce7af47474573efe0",
    "mbu_verdicts": "12cbfeb8774489476688fe4605ae02f16ccee4f82af2683e3683d9a31eeadea9",
    "seu_verdicts": "d68e0e62c9ea82e91587795304d4c4ff5cbfb3f3292c4239f9c16d0a5ec321ec",
}
# --- GOLDENS END ---

_REGEN_CMD = "PYTHONPATH=src python -m tests.utils.goldens --regen"


def golden(name: str) -> str:
    """The pinned SHA-256 for ``name`` (raises KeyError on typos)."""
    return GOLDENS[name]


def verdict_sha(verdicts) -> str:
    """Canonical digest of a verdict array: SHA-256 of its bytes."""
    return hashlib.sha256(verdicts.tobytes()).hexdigest()


def implement_sha(hw) -> str:
    """Canonical digest of everything ``implement`` produces.

    Covers the bitstream bytes, the sorted drive/straight/turn PIP sets,
    the router's ``wire_net`` and every array of the decoded
    :class:`~repro.netlist.compiled.CompiledDesign`, so a router or
    decoder speed-up that moves any of them by one bit fails the pin.
    """
    import dataclasses

    import numpy as np

    h = hashlib.sha256()

    def feed(tag: str, data: bytes) -> None:
        h.update(f"{tag}:{len(data)}:".encode())
        h.update(data)

    routed = hw.routed
    feed("bits", hw.bitstream.bits.tobytes())
    feed("drive", repr(sorted(routed.drive_pips)).encode())
    feed("straight", repr(sorted(routed.straight_pips)).encode())
    feed("turn", repr(sorted(routed.turn_pips)).encode())
    feed("wire_net", repr(sorted(routed.wire_net.items())).encode())
    design = hw.decoded.design
    for f in dataclasses.fields(design):
        value = getattr(design, f.name)
        if isinstance(value, np.ndarray):
            feed(f"{f.name}:{value.dtype.str}:{value.shape}", value.tobytes())
        elif f.name == "levels":
            for i, rows in enumerate(value):
                feed(f"level{i}:{rows.dtype.str}:{rows.shape}", rows.tobytes())
        elif isinstance(value, dict):
            feed(f.name, repr(sorted(value.items())).encode())
        else:
            feed(f.name, repr(value).encode())
    return h.hexdigest()


def implement_cases() -> dict[str, tuple]:
    """Golden name -> (design spec, device name) of every pinned
    ``implement`` run: MULT4/S8, MULT6/S12 and both BIST variants."""
    from repro.bist.patterns import clb_test_design
    from repro.designs import array_multiplier

    return {
        "implement_mult4_s8": (array_multiplier(4), "S8"),
        "implement_mult6_s12": (array_multiplier(6), "S12"),
        "implement_bist_v0_s12": (clb_test_design(4, register_bits=8, variant=0), "S12"),
        "implement_bist_v1_s12": (clb_test_design(4, register_bits=8, variant=1), "S12"),
    }


def assert_golden(name: str, sha: str) -> None:
    """Assert ``sha`` matches the pinned golden, with a regen hint."""
    want = golden(name)
    assert sha == want, (
        f"golden {name!r} drifted:\n  pinned {want}\n  got    {sha}\n"
        f"If the verdict change is intentional, re-pin with:\n  {_REGEN_CMD}"
    )


def assert_golden_verdicts(name: str, verdicts) -> None:
    """Shorthand: hash a verdict array and compare against the pin."""
    assert_golden(name, verdict_sha(verdicts))


# -- regeneration -------------------------------------------------------------

_BLOCK_RE = re.compile(
    r"(# --- GOLDENS BEGIN.*?---\n).*?(# --- GOLDENS END ---)", re.DOTALL
)


def rewrite_goldens_block(source: str, goldens: dict[str, str]) -> str:
    """Replace the GOLDENS block in ``source`` with ``goldens``.

    Pure function so the file-rewrite logic is unit-testable without
    touching this module on disk.
    """
    if not _BLOCK_RE.search(source):
        raise ValueError("GOLDENS markers not found")
    lines = ["GOLDENS = {"]
    for key in sorted(goldens):
        lines.append(f'    "{key}": "{goldens[key]}",')
    lines.append("}")
    body = "\n".join(lines)
    return _BLOCK_RE.sub(lambda m: m.group(1) + body + "\n" + m.group(2), source)


def compute_goldens() -> dict[str, str]:
    """Recompute every golden from serial reference runs (slow: ~1 min)."""
    from repro.designs import array_multiplier
    from repro.engine import run_sweep
    from repro.fpga import get_device
    from repro.place import implement
    from repro.seu import CampaignConfig, run_campaign, run_halflatch_sweep
    from repro.seu.multibit import MBUFaultModel

    hw = implement(array_multiplier(4), get_device("S8"))
    cfg = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)
    hl_cfg = CampaignConfig(
        detect_cycles=48, persist_cycles=0, classify_persistence=False, batch_size=32
    )
    # The MBU golden pins the engine-level trial verdicts (the bytes an
    # MBU checkpoint archives); MultiBitResult itself only keeps counts.
    mbu_cfg = CampaignConfig(
        detect_cycles=48, persist_cycles=0, classify_persistence=False, batch_size=32
    )
    mbu_model = MBUFaultModel(
        hw.spec, hw.device.name, mbu_cfg, k=2, n_trials=160, seed=0
    )
    pins = {
        name: implement_sha(implement(spec, get_device(device)))
        for name, (spec, device) in implement_cases().items()
    }
    return pins | {
        "seu_verdicts": verdict_sha(run_campaign(hw, cfg).verdicts),
        "halflatch_verdicts": verdict_sha(run_halflatch_sweep(hw, hl_cfg).verdicts),
        "mbu_verdicts": verdict_sha(
            run_sweep(mbu_model, batch_size=mbu_cfg.batch_size).verdicts
        ),
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m tests.utils.goldens",
        description="Inspect or regenerate the pinned golden verdict SHAs.",
    )
    parser.add_argument(
        "--regen",
        action="store_true",
        help="recompute the goldens and rewrite the GOLDENS block in place",
    )
    args = parser.parse_args(argv)

    if not args.regen:
        for key in sorted(GOLDENS):
            print(f"{key}: {GOLDENS[key]}")
        return 0

    fresh = compute_goldens()
    for key in sorted(fresh):
        mark = "unchanged" if fresh[key] == GOLDENS.get(key) else "UPDATED"
        print(f"{key}: {fresh[key]} [{mark}]")
    with open(__file__, encoding="utf-8") as fh:
        source = fh.read()
    with open(__file__, "w", encoding="utf-8") as fh:
        fh.write(rewrite_goldens_block(source, fresh))
    print(f"rewrote {__file__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
