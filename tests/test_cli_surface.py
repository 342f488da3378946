"""The option surface of the sweep commands and ``serve``, pinned.

The job service's ``validate_spec`` renders a job as an argv and parses
it with :func:`repro.cli.build_parser`; scripts and CI pass these flags
too.  Each row is ``(option strings, dest, default, type, choices,
action)``; a refactor of how the parser is built must leave every row
unchanged.
"""

import argparse

import pytest

from repro.cli import build_parser

#: rows every sweep command (campaign, multibit, bist-coverage) carries,
#: apart from ``--jobs``, whose default differs per command
SWEEP_ROWS = [
    (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
    (("--checkpoint",), "checkpoint", None, None, None, "_StoreAction"),
    (("--resume",), "resume", False, None, None, "_StoreTrueAction"),
    (("--batch-size",), "batch_size", None, "int", None, "_StoreAction"),
    (("--trace",), "trace", None, None, None, "_StoreAction"),
    (("--progress",), "progress", False, None, None, "_StoreTrueAction"),
    (("--shard-attempts",), "shard_attempts", None, "int", None, "_StoreAction"),
    (("--allow-partial",), "allow_partial", False, None, None, "_StoreTrueAction"),
    (("--chaos",), "chaos", None, None, None, "_StoreAction"),
    (("--result-cache",), "result_cache", None, None, None, "_StoreAction"),
    (("--executor",), "transport", None, None, ("local", "tcp"), "_StoreAction"),
    (("--workers",), "workers", None, "int", None, "_StoreAction"),
    (("--listen",), "listen", None, None, None, "_StoreAction"),
    (("--announce",), "announce", None, None, None, "_StoreAction"),
]

SURFACE = {
    "campaign": SWEEP_ROWS + [
        ((), "design", None, None, None, "_StoreAction"),
        (("--device",), "device", "S12", None, None, "_StoreAction"),
        (("--detect-cycles",), "detect_cycles", 96, "int", None, "_StoreAction"),
        (("--persist-cycles",), "persist_cycles", 64, "int", None, "_StoreAction"),
        (("--stride",), "stride", 1, "int", None, "_StoreAction"),
        (("--jobs",), "jobs", None, "int", None, "_StoreAction"),
        (("--save-map",), "save_map", None, None, None, "_StoreAction"),
        (("--checkpoint-every",), "checkpoint_every", 50000, "int", None, "_StoreAction"),
    ],
    "multibit": SWEEP_ROWS + [
        ((), "design", None, None, None, "_StoreAction"),
        (("--device",), "device", "S12", None, None, "_StoreAction"),
        (("--k",), "k", 2, "int", None, "_StoreAction"),
        (("--trials",), "trials", 512, "int", None, "_StoreAction"),
        (("--seed",), "seed", 0, "int", None, "_StoreAction"),
        (("--detect-cycles",), "detect_cycles", 96, "int", None, "_StoreAction"),
        (("--single-sensitivity",), "single_sensitivity", None, "float", None, "_StoreAction"),
        (("--stride",), "stride", 13, "int", None, "_StoreAction"),
        (("--jobs",), "jobs", 1, "int", None, "_StoreAction"),
    ],
    "bist-coverage": SWEEP_ROWS + [
        (("--device",), "device", "S12", None, None, "_StoreAction"),
        (("--faults",), "n_faults", 200, "int", None, "_StoreAction"),
        (("--seed",), "seed", 0, "int", None, "_StoreAction"),
        (("--cycles",), "cycles", 128, "int", None, "_StoreAction"),
        (("--register-pairs",), "register_pairs", 4, "int", None, "_StoreAction"),
        (("--jobs",), "jobs", 1, "int", None, "_StoreAction"),
    ],
    "serve": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--listen",), "listen", "127.0.0.1:8321", None, None, "_StoreAction"),
        (("--state",), "state", ".repro-service", None, None, "_StoreAction"),
        (("--job-workers",), "job_workers", 2, "int", None, "_StoreAction"),
        (("--result-cache",), "result_cache", None, None, None, "_StoreAction"),
        (("--max-running",), "max_running", 4, "int", None, "_StoreAction"),
        (("--max-queued",), "max_queued", None, "int", None, "_StoreAction"),
        (("--announce",), "announce", None, None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, "_StoreAction"),
        (("--progress",), "progress", False, None, None, "_StoreTrueAction"),
    ],
}


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_option_surface_is_pinned(command):
    actions = _subparser(command)._actions
    actual = {
        a.dest: (
            tuple(a.option_strings),
            a.dest,
            a.default,
            None if a.type is None else a.type.__name__,
            None if a.choices is None else tuple(a.choices),
            type(a).__name__,
        )
        for a in actions
    }
    expected = {row[1]: row for row in SURFACE[command]}
    assert len(actual) == len(actions)  # no two options share a dest
    assert actual == expected
