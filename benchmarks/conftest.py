"""Shared benchmark fixtures.

Campaign artifacts are expensive; they are computed once per session and
shared across the table/figure benchmarks.  The ``report`` fixture
prints reproduction tables straight to the terminal (outside pytest's
capture) so ``pytest benchmarks/ --benchmark-only`` leaves a readable
paper-vs-measured record.  ``bench_record`` writes every
``BENCH_*.json`` with one common provenance envelope
(``{"envelope": {...}, "rows": [...]}``) so records from different
machines and revisions are comparable.
"""

from __future__ import annotations

import datetime
import json
import platform
import socket
import subprocess
from pathlib import Path

import pytest

from repro.designs import scaled_suite_table1, scaled_suite_table2
from repro.fpga import get_device
from repro.place import implement
from repro.seu import CampaignConfig, run_campaign


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def bench_envelope() -> dict:
    """Provenance stamped into every ``BENCH_*.json`` record."""
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "hostname": socket.gethostname(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


@pytest.fixture()
def bench_record():
    """Write ``rows`` to a BENCH record file under the common envelope.

    ``append=True`` folds the rows into an existing record's (shared
    record files accumulated across several tests, e.g. the wire-test
    figure); the envelope is refreshed on every write.
    """

    def _write(out_path, rows: list, append: bool = False) -> Path:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        if append and out_path.exists():
            try:
                prior = json.loads(out_path.read_text())
            except (OSError, json.JSONDecodeError):
                prior = {}
            if isinstance(prior, dict):
                rows = prior.get("rows", []) + rows
            elif isinstance(prior, list):  # pre-envelope record
                rows = prior + rows
        record = {"envelope": bench_envelope(), "rows": rows}
        out_path.write_text(json.dumps(record, indent=2) + "\n")
        return out_path

    return _write


@pytest.fixture()
def report(capsys):
    """Print outside pytest capture: report("line") shows on the terminal."""

    def _report(*lines: str) -> None:
        with capsys.disabled():
            for line in lines:
                print(line)

    return _report


@pytest.fixture(scope="session")
def bench_device():
    return get_device("S12")


@pytest.fixture(scope="session")
def campaign_config():
    return CampaignConfig(detect_cycles=96, persist_cycles=64, batch_size=192)


@pytest.fixture(scope="session")
def table1_campaigns(bench_device, campaign_config):
    """(hw, result) per scaled Table I design — the session's big compute."""
    out = []
    for spec in scaled_suite_table1():
        hw = implement(spec, bench_device)
        out.append((hw, run_campaign(hw, campaign_config)))
    return out


@pytest.fixture(scope="session")
def table2_campaigns(bench_device, campaign_config):
    out = []
    for spec in scaled_suite_table2():
        hw = implement(spec, bench_device)
        out.append((hw, run_campaign(hw, campaign_config)))
    return out
