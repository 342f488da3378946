"""Job specs: the service's wire format, validated against the CLI surface.

A job is one engine sweep — the same thing a human would run as ``repro
campaign|multibit|bist-coverage ...`` — expressed as JSON::

    {"kind": "campaign", "design": "MULT4", "device": "S8",
     "tenant": "ops", "priority": "high",
     "flags": {"stride": 7, "detect_cycles": 48, "batch_size": 32}}

Rather than inventing a parallel schema that could drift from the CLI,
:meth:`JobSpec.to_argv` renders the spec back to a ``repro`` argv and
:func:`validate_spec` runs it through :func:`repro.cli.build_parser` —
a spec is valid *iff* the equivalent command line is.  The service then
executes exactly that argv in a subprocess, so the byte-identity
contracts pinned on the CLI (golden SHAs, jobs-invariance) transfer to
HTTP jobs for free.

The **result key** (:meth:`JobSpec.result_key`, the store's
``content_key("service-job", ...)``) hashes only the fields that
determine verdict bytes: design, device, and the model parameters.
``jobs``, ``batch_size`` and ``checkpoint_every`` are excluded — the
engine pins byte-identity across all of them — so a duplicate sweep
hits the cache even when asked to run with different execution knobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.engine.cache import content_key
from repro.errors import ReproError
from repro.service.queue import PRIORITY_CLASSES

__all__ = ["SpecError", "JobSpec", "validate_spec", "spec_from_json"]

class SpecError(ReproError):
    """A submitted job spec failed validation (HTTP 400)."""


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


@dataclass(frozen=True)
class _Flag:
    """One accepted engine flag: its type and whether it changes bytes."""

    type: type
    keyed: bool  # participates in the result key (verdict-determining)


_COMMON_FLAGS: dict[str, _Flag] = {
    # Execution knobs: verdict bytes are pinned byte-identical across
    # all of these, so they are accepted but excluded from the key.
    "jobs": _Flag(int, keyed=False),
    "batch_size": _Flag(int, keyed=False),
}

_KIND_FLAGS: dict[str, dict[str, _Flag]] = {
    "campaign": {
        **_COMMON_FLAGS,
        "detect_cycles": _Flag(int, keyed=True),
        "persist_cycles": _Flag(int, keyed=True),
        "stride": _Flag(int, keyed=True),
        "checkpoint_every": _Flag(int, keyed=False),
    },
    "multibit": {
        **_COMMON_FLAGS,
        "detect_cycles": _Flag(int, keyed=True),
        "k": _Flag(int, keyed=True),
        "trials": _Flag(int, keyed=True),
        "seed": _Flag(int, keyed=True),
        # Affects reported statistics only, never verdict bytes; keyed
        # anyway so one cache entry's meta JSON matches its spec.
        "single_sensitivity": _Flag(float, keyed=True),
        "stride": _Flag(int, keyed=True),
    },
    "bist-coverage": {
        **_COMMON_FLAGS,
        "faults": _Flag(int, keyed=True),
        "seed": _Flag(int, keyed=True),
        "cycles": _Flag(int, keyed=True),
        "register_pairs": _Flag(int, keyed=True),
    },
}

#: kinds that take a positional design argument
_DESIGN_KINDS = ("campaign", "multibit")


@dataclass(frozen=True)
class JobSpec:
    """One validated sweep request."""

    kind: str
    design: str | None
    device: str = "S12"
    tenant: str = "default"
    priority: str = "normal"
    flags: tuple[tuple[str, Any], ...] = field(default_factory=tuple)

    def flag(self, name: str, default: Any = None) -> Any:
        for key, value in self.flags:
            if key == name:
                return value
        return default

    def to_argv(
        self,
        *,
        checkpoint: str | None = None,
        trace: str | None = None,
        resume: bool = False,
    ) -> list[str]:
        """Render the equivalent ``repro`` argv (optionally with the
        service-owned checkpoint/trace/resume flags appended)."""
        argv: list[str] = [self.kind]
        if self.kind in _DESIGN_KINDS:
            argv.append(str(self.design))
        argv += ["--device", self.device]
        for key, value in self.flags:
            argv += [_flag_name(key), str(value)]
        if checkpoint is not None:
            argv += ["--checkpoint", checkpoint]
        if trace is not None:
            argv += ["--trace", trace]
        if resume:
            argv.append("--resume")
        return argv

    def result_key(self) -> str:
        """Content address of this spec's verdict bytes (see module doc)."""
        table = _KIND_FLAGS[self.kind]
        keyed = [
            (key, value) for key, value in self.flags if table[key].keyed
        ]
        return content_key(
            "service-job",
            self.kind,
            self.design,
            self.device,
            json.dumps(sorted(keyed)),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "design": self.design,
            "device": self.device,
            "tenant": self.tenant,
            "priority": self.priority,
            "flags": dict(self.flags),
        }


def spec_from_json(payload: Any) -> JobSpec:
    """Parse and validate one submitted job body (raises :class:`SpecError`)."""
    if not isinstance(payload, dict):
        raise SpecError("job body must be a JSON object")
    unknown = set(payload) - {"kind", "design", "device", "tenant", "priority", "flags"}
    if unknown:
        raise SpecError(f"unknown job field(s): {', '.join(sorted(unknown))}")
    kind = payload.get("kind")
    if kind not in _KIND_FLAGS:
        raise SpecError(
            f"unknown kind {kind!r} (choose from {', '.join(sorted(_KIND_FLAGS))})"
        )
    design = payload.get("design")
    if kind in _DESIGN_KINDS:
        if not isinstance(design, str) or not design:
            raise SpecError(f"kind {kind!r} requires a design name")
    elif design is not None:
        raise SpecError(f"kind {kind!r} takes no design")
    device = payload.get("device", "S12")
    if not isinstance(device, str) or not device:
        raise SpecError("device must be a non-empty string")
    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise SpecError("tenant must be a string of 1..64 characters")
    if not all(c.isalnum() or c in "-_." for c in tenant):
        raise SpecError("tenant may only contain alphanumerics, '-', '_', '.'")
    priority = payload.get("priority", "normal")
    if priority not in PRIORITY_CLASSES:
        raise SpecError(
            f"unknown priority {priority!r} (choose from "
            f"{', '.join(PRIORITY_CLASSES)})"
        )
    raw_flags = payload.get("flags", {})
    if not isinstance(raw_flags, dict):
        raise SpecError("flags must be an object")
    table = _KIND_FLAGS[kind]
    flags: list[tuple[str, Any]] = []
    for key in sorted(raw_flags):
        spec = table.get(key)
        if spec is None:
            raise SpecError(
                f"kind {kind!r} does not accept flag {key!r} (accepted: "
                f"{', '.join(sorted(table))})"
            )
        value = raw_flags[key]
        if spec.type is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(f"flag {key!r} must be an integer")
        elif spec.type is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SpecError(f"flag {key!r} must be a number")
            value = float(value)
        flags.append((key, value))
    spec = JobSpec(
        kind=kind,
        design=design,
        device=device,
        tenant=tenant,
        priority=priority,
        flags=tuple(flags),
    )
    validate_spec(spec)
    return spec


def validate_spec(spec: JobSpec) -> None:
    """Check ``spec`` against the real CLI surface and catalogs.

    The argv render must parse under :func:`repro.cli.build_parser`
    (the single source of truth for accepted commands and flags), the
    device must exist, and — for design kinds — the design must be in
    the catalog.  Failing fast here turns a typo into an HTTP 400
    instead of a failed job.
    """
    import contextlib
    import io

    from repro.cli import build_parser

    argv = spec.to_argv()
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            build_parser().parse_args(argv)
    except SystemExit:
        detail = stderr.getvalue().strip().splitlines()
        raise SpecError(
            "spec does not parse as a repro command"
            + (f": {detail[-1]}" if detail else "")
        ) from None
    from repro.fpga import DEVICE_CATALOG

    if spec.device not in DEVICE_CATALOG:
        raise SpecError(
            f"unknown device {spec.device!r} (choose from "
            f"{', '.join(DEVICE_CATALOG)})"
        )
    if spec.kind in _DESIGN_KINDS:
        from repro.designs import get_design

        try:
            get_design(str(spec.design))
        except ReproError as err:
            raise SpecError(str(err)) from None
