"""Span ledger: where a benchmark repetition's wall time went.

Spans are recorded *outside* the program, around calls into its public
functions, and kept in memory until the repetition ends:

* :class:`Recorder` holds ``(name, parent, start, end, n)`` spans.  A
  span's parent is the span open when it was recorded, so every layer's
  self time is computable (:func:`self_times`).  In a process forked
  from the recording one (a sharded sweep's pool workers) the recorder
  switches to write-through: each span is appended to
  ``<sink_dir>/w-<pid>.txt`` so the parent can read worker time back
  (:func:`read_sink`).
* :class:`TimedModel` is a :class:`~repro.engine.model.FaultModel` that
  delegates every protocol method to the wrapped model and times the
  ones that do work.  The engine drives it exactly as it drives the
  wrapped model, so verdict bytes are unchanged.
* :func:`install_place_hook` wraps the four stages of
  :func:`repro.place.flow.implement` (and ``implement`` itself) the
  moment that module is first imported, in this process or — through
  ``hook/sitecustomize.py`` — in a service job's subprocess.
* :func:`ledger_table` turns spans into the "where the wall went" rows:
  self seconds per layer, share of the wall, and the unattributed
  remainder ``wall - sum(self)``.
"""

from __future__ import annotations

import atexit
import contextlib
import importlib.machinery
import os
import sys
import time
from collections import defaultdict
from typing import Any, Iterator

perf_counter = time.perf_counter

#: stages of ``repro.place.flow.implement`` -> layer names
PLACE_STAGES = {
    "place_design": "place.place",
    "route_design": "place.route",
    "generate_bitstream": "place.bitgen",
    "decode_bitstream": "place.decode",
}


class Recorder:
    """In-memory spans for one process, write-through in forked children."""

    def __init__(self, sink_dir: str | None = None, write_through: bool = False):
        self.spans: list[tuple[str, int, float, float, int]] = []
        self.sink_dir = sink_dir
        self._open: list[int] = []
        self._fd: int | None = None
        if write_through:
            self._open_sink()
        if sink_dir is not None:
            os.register_at_fork(after_in_child=self._open_sink)

    def _open_sink(self) -> None:
        # A forked pool worker inherits the parent's spans; they are not
        # its own, so it starts empty and streams what it records.
        self.spans = []
        self._open = []
        path = os.path.join(str(self.sink_dir), f"w-{os.getpid()}.txt")
        self._fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def __reduce__(self):
        # Unpickled in another process (a spawned or remote worker), a
        # recorder streams to the same sink; its in-memory spans stay here.
        return (Recorder, (self.sink_dir, self.sink_dir is not None))

    def leaf(self, name: str, t0: float, t1: float, n: int = 0) -> None:
        """Record a finished span with no children."""
        if self._fd is not None:
            os.write(self._fd, f"{name}\t{t0!r}\t{t1!r}\t{n}\n".encode())
        else:
            self.spans.append((name, self._open[-1] if self._open else -1, t0, t1, n))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span that may have children (recorded while it is open)."""
        if self._fd is not None:
            t0 = perf_counter()
            try:
                yield
            finally:
                self.leaf(name, t0, perf_counter())
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, parent, perf_counter(), 0.0, 0))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            name_, parent_, t0, _, n = self.spans[idx]
            self.spans[idx] = (name_, parent_, t0, perf_counter(), n)

    def timed(self, fn: Any, name: str) -> Any:
        """``fn`` wrapped in a span named ``name``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def read_sink(sink_dir: str) -> dict[int, list[tuple[str, int, float, float, int]]]:
    """Spans streamed by write-through recorders under ``sink_dir``, per pid."""
    out: dict[int, list[tuple[str, int, float, float, int]]] = {}
    for entry in sorted(os.listdir(sink_dir)):
        if not (entry.startswith("w-") and entry.endswith(".txt")):
            continue
        spans = out.setdefault(int(entry[2:-4]), [])
        with open(os.path.join(sink_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                name, t0, t1, n = line.rstrip("\n").split("\t")
                spans.append((name, -1, float(t0), float(t1), int(n)))
    return out


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[tuple[str, int, float, float, int]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [t1 - t0 for _, _, t0, t1, _ in spans]
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def totals(spans: list[tuple[str, int, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per layer name: summed duration, self time, call count and ``n``."""
    agg: dict[str, dict[str, float]] = defaultdict(
        lambda: {"seconds": 0.0, "self": 0.0, "calls": 0, "n": 0}
    )
    for (name, _, t0, t1, n), own in zip(spans, self_times(spans)):
        row = agg[name]
        row["seconds"] += t1 - t0
        row["self"] += own
        row["calls"] += 1
        row["n"] += n
    return dict(agg)


def ledger_table(
    spans: list[tuple[str, int, float, float, int]], wall: float
) -> tuple[list[tuple[str, float, float]], float]:
    """``([(layer, self seconds, share of wall)], remainder)``.

    Rows are sorted by self time; the remainder is the part of ``wall``
    no span covers, ``wall - sum(self)``.
    """
    agg = totals(spans)
    rows = sorted(
        ((name, row["self"], row["self"] / wall if wall > 0 else 0.0) for name, row in agg.items()),
        key=lambda r: -r[1],
    )
    return rows, wall - sum(r[1] for r in rows)


def worker_table(
    workers: dict[str, dict[str, float]], busy: float, capacity: float
) -> list[tuple[str, float, float]]:
    """Rows splitting a sharded sweep's worker capacity (jobs x wall).

    Timed worker layers, then ``(worker, untimed)`` — busy time the
    workers reported but no span covers — and ``(executor overhead)``,
    the capacity no worker reported busy.
    """
    ordered = sorted(workers.items(), key=lambda kv: -kv[1]["seconds"])
    rows = [(name, row["seconds"]) for name, row in ordered]
    rows.append(("(worker, untimed)", busy - sum(s for _, s in rows)))
    rows.append(("(executor overhead)", capacity - busy))
    return [(name, s, s / capacity if capacity > 0 else 0.0) for name, s in rows]


def format_table(
    title: str, rows: list[tuple[str, float, float]], wall: float, remainder: float | None
) -> str:
    """Render ledger rows; ``remainder=None`` for tables whose rows
    already account for the whole wall."""
    lines = [f"{title}  (wall {wall:.3f} s)", f"  {'layer':<26}{'seconds':>10}{'share':>9}"]
    for name, seconds, share in rows:
        lines.append(f"  {name:<26}{seconds:>10.3f}{100 * share:>8.1f}%")
    if remainder is not None:
        share = remainder / wall if wall > 0 else 0.0
        lines.append(f"  {'(unattributed)':<26}{remainder:>10.3f}{100 * share:>8.1f}%")
    return "\n".join(lines)


# -- the fault-model wrapper ---------------------------------------------------


def timed_model(inner: Any, recorder: Recorder, prefix: str) -> Any:
    """Wrap ``inner`` (a FaultModel) so every protocol call is timed.

    Layers: ``<prefix>.context``, ``<prefix>.prefilter`` (``n`` = 1 when
    the candidate was settled without simulation), ``<prefix>.patch``,
    ``engine.collapse`` (signature, salt datum, salt), ``netlist.kernel``
    (``observe_batch`` and ``observe_collapsed``; ``n`` = machines in the
    batch) and ``engine.classify`` (``classify`` and ``payload``).  The
    rest of the protocol (``key``, ``collapsible``, ``fast_forward_cycle``
    and the candidate space) is delegated untimed.
    """
    from repro.engine.model import CODE_NOT_TESTED, FaultModel

    class TimedModel(FaultModel):
        name = inner.name
        collapsible = inner.collapsible

        def __init__(self) -> None:
            self.inner = inner

        def __reduce__(self):
            return (timed_model, (self.inner, recorder, prefix))

        def key(self) -> str:
            return self.inner.key()

        def space_size(self) -> int:
            return self.inner.space_size()

        def enumerate_candidates(self):
            return self.inner.enumerate_candidates()

        def fast_forward_cycle(self):
            return self.inner.fast_forward_cycle()

        def build_context(self):
            with recorder.span(f"{prefix}.context"):
                return self.inner.build_context()

        def prefilter(self, candidate, ctx):
            t0 = perf_counter()
            code, payload = self.inner.prefilter(candidate, ctx)
            recorder.leaf(f"{prefix}.prefilter", t0, perf_counter(), int(code != CODE_NOT_TESTED))
            return code, payload

        def patch_for(self, candidate, ctx):
            t0 = perf_counter()
            patch = self.inner.patch_for(candidate, ctx)
            recorder.leaf(f"{prefix}.patch", t0, perf_counter())
            return patch

        def observe_batch(self, ctx, pending):
            t0 = perf_counter()
            obs = self.inner.observe_batch(ctx, pending)
            recorder.leaf("netlist.kernel", t0, perf_counter(), len(pending))
            return obs

        def observe_collapsed(self, ctx, pending, salt):
            t0 = perf_counter()
            obs = self.inner.observe_collapsed(ctx, pending, salt)
            recorder.leaf("netlist.kernel", t0, perf_counter(), len(pending))
            return obs

        def classify(self, observation):
            t0 = perf_counter()
            code = self.inner.classify(observation)
            recorder.leaf("engine.classify", t0, perf_counter())
            return code

        def payload(self, observation):
            t0 = perf_counter()
            rich = self.inner.payload(observation)
            recorder.leaf("engine.classify", t0, perf_counter())
            return rich

        def collapse_signature(self, candidate, ctx, patch):
            t0 = perf_counter()
            sig = self.inner.collapse_signature(candidate, ctx, patch)
            recorder.leaf("engine.collapse", t0, perf_counter())
            return sig

        def collapse_salt_datum(self, candidate, ctx, patch):
            t0 = perf_counter()
            datum = self.inner.collapse_salt_datum(candidate, ctx, patch)
            recorder.leaf("engine.collapse", t0, perf_counter())
            return datum

        def collapse_salt(self, ctx, data):
            t0 = perf_counter()
            salt = self.inner.collapse_salt(ctx, data)
            recorder.leaf("engine.collapse", t0, perf_counter())
            return salt

    return TimedModel()


# -- implement() instrumentation -----------------------------------------------


def instrument_flow(flow: Any, recorder: Recorder) -> None:
    """Wrap ``implement`` and its four stages in ``repro.place.flow``.

    ``implement`` looks its stages up in the module at call time, and
    every other module binds ``implement`` by importing it from here —
    so patching right after the module executes covers every caller.
    """
    for attr, layer in PLACE_STAGES.items():
        setattr(flow, attr, recorder.timed(getattr(flow, attr), layer))
    flow.implement = recorder.timed(flow.implement, "place.implement")


class _FlowFinder:
    """Meta-path finder that instruments ``repro.place.flow`` on import."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def find_spec(self, name: str, path: Any = None, target: Any = None) -> Any:
        if name != "repro.place.flow":
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        recorder = self.recorder

        def exec_and_instrument(module: Any) -> None:
            exec_module(module)
            instrument_flow(module, recorder)

        spec.loader.exec_module = exec_and_instrument
        return spec


def install_place_hook(recorder: Recorder) -> None:
    """Instrument ``repro.place.flow`` when it is first imported."""
    if "repro.place.flow" in sys.modules:
        raise RuntimeError("install_place_hook must run before repro is imported")
    sys.meta_path.insert(0, _FlowFinder(recorder))


def instrument_process(sink_dir: str) -> None:
    """Stream this process's place spans and its lifetime to ``sink_dir``.

    Used by ``hook/sitecustomize.py`` in service job subprocesses: the
    process span (``service.job_process``) runs from interpreter start-up
    to exit.
    """
    recorder = Recorder(sink_dir, write_through=True)
    t_start = perf_counter()
    install_place_hook(recorder)
    atexit.register(lambda: recorder.leaf("service.job_process", t_start, perf_counter()))
