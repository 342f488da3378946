"""Post-hoc trace analysis: parse a JSONL trace and render a report.

The parser is deliberately forgiving about the ways a real trace file
gets damaged — a killed process truncates the final line, a resumed
campaign appends a second ``run_start`` segment, a crashed phase leaves
spans unclosed — because the report is most valuable exactly when a run
did *not* end cleanly.  Malformed lines are counted, not fatal; span
ids restart per segment, so events are scoped to the segment whose
``run_start`` most recently preceded them.

``render_report`` produces the ``repro report`` output: per-segment
span tree with durations, the critical path (the chain of
longest-duration children from the root), a per-stage time breakdown
aggregated by span name, and the collapse/retire savings recorded in
the final telemetry point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.obs.trace import SCHEMA_VERSION

__all__ = ["Span", "Segment", "Trace", "load_trace", "render_report", "report_dict"]


@dataclass
class Span:
    """One reconstructed span: an open event and (usually) its close."""

    span_id: int
    name: str
    parent: int | None
    t_open: float
    t_close: float | None = None
    fields: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.t_close is not None

    @property
    def duration(self) -> float:
        if self.t_close is None:
            return 0.0
        return max(0.0, self.t_close - self.t_open)


@dataclass
class Segment:
    """Everything between one ``run_start`` and the next (or EOF)."""

    schema: int
    label: str
    resumed: bool
    pid: int | None = None
    wall: float | None = None
    ended: bool = False
    spans: dict[int, Span] = field(default_factory=dict)
    roots: list[Span] = field(default_factory=list)
    points: list[dict[str, Any]] = field(default_factory=list)
    heartbeats: list[dict[str, Any]] = field(default_factory=list)
    counters: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max((s.t_close for s in self.spans.values() if s.closed), default=0.0)

    def last_point(self, kind: str) -> dict[str, Any] | None:
        for point in reversed(self.points):
            if point.get("kind") == kind:
                return point
        return None


@dataclass
class Trace:
    """A parsed trace file: one or more run segments."""

    path: str
    segments: list[Segment] = field(default_factory=list)
    malformed: int = 0
    orphans: int = 0  # events outside any run_start segment

    @property
    def resumed(self) -> bool:
        return any(s.resumed for s in self.segments)


def load_trace(path: str) -> Trace:
    """Parse a JSONL trace file into segments of reconstructed spans."""
    trace = Trace(path=str(path))
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read trace file {path!r}: {exc}") from exc
    current: Segment | None = None
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                trace.malformed += 1
                continue
            if not isinstance(event, dict) or "ev" not in event:
                trace.malformed += 1
                continue
            ev = event["ev"]
            if ev == "run_start":
                current = Segment(
                    schema=int(event.get("schema", 0)),
                    label=str(event.get("label", "run")),
                    resumed=bool(event.get("resumed", False)),
                    pid=event.get("pid"),
                    wall=event.get("wall"),
                )
                trace.segments.append(current)
                continue
            if current is None:
                trace.orphans += 1
                continue
            if ev == "span_open":
                span = Span(
                    span_id=int(event.get("span", -1)),
                    name=str(event.get("name", "?")),
                    parent=event.get("parent"),
                    t_open=float(event.get("t", 0.0)),
                    fields={
                        k: v
                        for k, v in event.items()
                        if k not in ("ev", "span", "parent", "name", "t")
                    },
                )
                current.spans[span.span_id] = span
                parent = current.spans.get(span.parent) if span.parent is not None else None
                if parent is not None:
                    parent.children.append(span)
                else:
                    current.roots.append(span)
            elif ev == "span_close":
                span = current.spans.get(event.get("span"))
                if span is None:
                    trace.orphans += 1
                    continue
                span.t_close = float(event.get("t", span.t_open))
                span.fields.update(
                    {k: v for k, v in event.items() if k not in ("ev", "span", "t")}
                )
            elif ev == "point":
                current.points.append(event)
            elif ev == "heartbeat":
                current.heartbeats.append(event)
            elif ev == "counters":
                current.counters.append(event)
            elif ev == "run_end":
                current.ended = True
            else:
                trace.malformed += 1
    if not trace.segments:
        raise ReproError(
            f"trace file {path!r} contains no run_start event "
            f"({trace.malformed} malformed line(s))"
        )
    return trace


# -- rendering ----------------------------------------------------------------

_MAX_CHILDREN = 10  # span-tree fan-out cap: beyond this, siblings are summarized


def _span_label(span: Span) -> str:
    detail = ""
    interesting = {
        k: v
        for k, v in span.fields.items()
        if k in ("index", "batches", "bits", "n_batches", "aborted")
    }
    if interesting:
        detail = " " + " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
    status = f"{span.duration:.3f}s" if span.closed else "UNCLOSED"
    return f"{span.name}{detail}  [{status}]"


def _render_span(span: Span, indent: int, lines: list[str]) -> None:
    lines.append("  " * indent + _span_label(span))
    shown = span.children[:_MAX_CHILDREN]
    for child in shown:
        _render_span(child, indent + 1, lines)
    hidden = span.children[_MAX_CHILDREN:]
    if hidden:
        total = sum(c.duration for c in hidden)
        lines.append(
            "  " * (indent + 1)
            + f"... {len(hidden)} more sibling span(s)  [{total:.3f}s total]"
        )


def _critical_path(root: Span) -> list[Span]:
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda s: s.duration)
        path.append(node)
    return path


def _stage_breakdown(segment: Segment) -> list[tuple[str, int, float]]:
    totals: dict[str, tuple[int, float]] = {}
    for span in segment.spans.values():
        count, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (count + 1, seconds + span.duration)
    rows = [(name, count, seconds) for name, (count, seconds) in totals.items()]
    rows.sort(key=lambda r: -r[2])
    return rows


def _savings_lines(segment: Segment) -> list[str]:
    telem = segment.last_point("telemetry")
    if telem is None:
        return ["  (no telemetry point recorded)"]
    lines = []
    n_simulated = telem.get("n_simulated")
    n_collapsed = telem.get("n_collapsed", 0)
    if n_collapsed:
        pct = f" ({100.0 * n_collapsed / n_simulated:.1f}%)" if n_simulated else ""
        lines.append(f"  collapse: {n_collapsed} of {n_simulated} faults folded{pct}")
    else:
        lines.append("  collapse: off or nothing folded")
    retired = telem.get("machines_retired", 0)
    if retired:
        lines.append(
            f"  retire:   {retired} machine(s) sealed before their batch's last cycle, "
            f"{telem.get('machine_cycles_saved', 0)} machine-cycles saved"
        )
    else:
        lines.append("  retire:   off or no machines retired")
    return lines


def _ff_cache_lines(segment: Segment) -> list[str]:
    """The temporal fast-forward / result-cache section.

    Rendered only when the run skipped cycles or touched a result store
    (a run with both features off keeps its report unchanged).  Counts
    come from the final telemetry point; the ``cache_hit`` trace points
    add where the hits landed (whole sweep vs individual shards).
    """
    telem = segment.last_point("telemetry")
    if telem is None:
        return []
    skipped = telem.get("ff_cycles_skipped", 0)
    hits = telem.get("cache_hits", 0)
    misses = telem.get("cache_misses", 0)
    if not (skipped or hits or misses):
        return []
    lines = ["", "fast-forward / result cache:"]
    if skipped:
        lines.append(
            f"  fast-forward: {skipped} golden machine-cycle(s) skipped "
            f"via snapshot restore"
        )
    else:
        lines.append("  fast-forward: off or nothing skipped")
    if hits or misses:
        rate = telem.get("cache_hit_rate", 0.0)
        lines.append(
            f"  cache:        {hits} hit(s) / {misses} miss(es) "
            f"({100.0 * rate:.1f}% served), "
            f"{telem.get('cache_bytes', 0)} cached byte(s) read"
        )
        scopes: dict[str, int] = {}
        for point in segment.points:
            if point.get("kind") == "cache_hit":
                scope = str(point.get("scope", "?"))
                scopes[scope] = scopes.get(scope, 0) + 1
        if scopes:
            detail = ", ".join(
                f"{n} {scope}-level" for scope, n in sorted(scopes.items())
            )
            lines.append(f"  hits:         {detail}")
    return lines


_RECOVERY_KINDS = (
    "retry",
    "speculate",
    "pool_rebuild",
    "quarantine",
    "straggler",
    "worker_join",
    "worker_leave",
    "requeue",
    "late_result",
)


def _recovery_lines(segment: Segment) -> list[str]:
    """The fault-recovery timeline: what the shard executor had to do.

    Rendered only when recovery points exist (an undisturbed run keeps
    its report unchanged).  Counts come from the trace points; the
    telemetry point (when present) cross-checks them and adds the
    speculation win rate and candidates lost to quarantine.
    """
    counts = {kind: 0 for kind in _RECOVERY_KINDS}
    for point in segment.points:
        kind = point.get("kind")
        if kind in counts:
            counts[kind] += 1
    if not any(counts.values()):
        return []
    lines = ["", "recovery:"]
    telem = segment.last_point("telemetry") or {}
    if counts["retry"]:
        lines.append(f"  retries:      {counts['retry']} failed launch(es) retried")
    if counts["straggler"] or counts["speculate"]:
        wins = telem.get("speculative_wins")
        win_text = f", {wins} duplicate(s) won" if wins is not None else ""
        lines.append(
            f"  speculation:  {counts['straggler']} straggler(s) flagged, "
            f"{counts['speculate']} speculative launch(es){win_text}"
        )
    if counts["pool_rebuild"]:
        lines.append(
            f"  pool:         rebuilt {counts['pool_rebuild']} time(s) after worker death"
        )
    if counts["worker_join"] or counts["worker_leave"] or counts["requeue"]:
        steals = telem.get("dist_steals")
        steal_text = f", {steals} shard(s) stolen" if steals else ""
        lines.append(
            f"  membership:   {counts['worker_join']} worker join(s), "
            f"{counts['worker_leave']} leave(s), "
            f"{counts['requeue']} in-flight shard(s) requeued{steal_text}"
        )
    if counts["late_result"]:
        lines.append(
            f"  late results: {counts['late_result']} quarantined shard(s) "
            f"completed during teardown (logged, not merged)"
        )
    if counts["quarantine"]:
        dropped = telem.get("candidates_quarantined")
        drop_text = f" ({dropped} candidate(s) excluded)" if dropped else ""
        lines.append(f"  quarantine:   {counts['quarantine']} shard(s) given up{drop_text}")
        for point in segment.points:
            if point.get("kind") == "quarantine":
                lines.append(
                    f"    {point.get('phase', '?')} {point.get('key', '?')}: "
                    f"{point.get('error', 'unknown error')}"
                )
    return lines


def _span_dict(span: Span) -> dict[str, Any]:
    return {
        "span": span.span_id,
        "name": span.name,
        "t_open": span.t_open,
        "t_close": span.t_close,
        "duration_s": round(span.duration, 6),
        "closed": span.closed,
        "fields": span.fields,
        "children": [_span_dict(c) for c in span.children],
    }


def report_dict(trace: Trace) -> dict[str, Any]:
    """The ``repro report`` content as JSON-serializable data.

    Backs ``repro report --json`` and the service's ``/report`` endpoint
    — the same segments, span trees, critical path and per-stage
    breakdown that :func:`render_report` prints, machine-readable.
    """
    segments = []
    for segment in trace.segments:
        roots = [_span_dict(r) for r in segment.roots]
        critical = []
        if segment.roots:
            main_root = max(segment.roots, key=lambda s: s.duration)
            critical = [
                {"name": s.name, "duration_s": round(s.duration, 6), "closed": s.closed}
                for s in _critical_path(main_root)
            ]
        segments.append(
            {
                "label": segment.label,
                "schema": segment.schema,
                "resumed": segment.resumed,
                "ended": segment.ended,
                "pid": segment.pid,
                "n_spans": len(segment.spans),
                "n_points": len(segment.points),
                "n_heartbeats": len(segment.heartbeats),
                "span_tree": roots,
                "critical_path": critical,
                "stages": [
                    {"name": name, "count": count, "seconds": round(seconds, 6)}
                    for name, count, seconds in _stage_breakdown(segment)
                ],
                "telemetry": segment.last_point("telemetry"),
            }
        )
    return {
        "path": trace.path,
        "schema_version": SCHEMA_VERSION,
        "malformed": trace.malformed,
        "orphans": trace.orphans,
        "resumed": trace.resumed,
        "segments": segments,
    }


def render_report(trace: Trace) -> str:
    """Render the ``repro report`` text for a parsed trace."""
    lines: list[str] = []
    lines.append(f"trace: {trace.path}")
    health = []
    if trace.malformed:
        health.append(f"{trace.malformed} malformed line(s) skipped")
    if trace.orphans:
        health.append(f"{trace.orphans} orphan event(s)")
    if health:
        lines.append("note: " + ", ".join(health))
    for i, segment in enumerate(trace.segments):
        schema_note = "" if segment.schema == SCHEMA_VERSION else (
            f" (schema {segment.schema}, reader expects {SCHEMA_VERSION})"
        )
        flags = []
        if segment.resumed:
            flags.append("resumed")
        if not segment.ended:
            flags.append("no clean run_end")
        flag_text = f" [{', '.join(flags)}]" if flags else ""
        lines.append("")
        lines.append(
            f"segment {i + 1}/{len(trace.segments)}: {segment.label}"
            f"{flag_text}{schema_note}"
        )
        if not segment.spans:
            # A warm cache-served sweep never opens a span; the
            # fast-forward / cache section is the whole story then.
            lines.append("  (no spans)")
            lines.extend(_ff_cache_lines(segment))
            continue
        lines.append("")
        lines.append("span tree:")
        for root in segment.roots:
            _render_span(root, 1, lines)
        if segment.roots:
            main_root = max(segment.roots, key=lambda s: s.duration)
            path = _critical_path(main_root)
            lines.append("")
            lines.append("critical path:")
            for span in path:
                lines.append(f"  {_span_label(span)}")
        lines.append("")
        lines.append("per-stage breakdown:")
        for name, count, seconds in _stage_breakdown(segment):
            lines.append(f"  {name:<24} x{count:<6} {seconds:.3f}s")
        lines.append("")
        lines.append("shrinker savings:")
        lines.extend(_savings_lines(segment))
        lines.extend(_ff_cache_lines(segment))
        lines.extend(_recovery_lines(segment))
        if segment.heartbeats:
            stalls = sum(1 for p in segment.points if p.get("kind") == "straggler")
            lines.append("")
            lines.append(
                f"liveness: {len(segment.heartbeats)} heartbeat(s), "
                f"{stalls} straggler warning(s)"
            )
    return "\n".join(lines) + "\n"
