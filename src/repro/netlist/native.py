"""The reference kernel's whole cycle as one compiled C function.

:class:`~repro.netlist.simulator.BatchSimulator` spends its time making
numpy calls, five per LUT level and settle pass; the arithmetic inside
them is trivial.  :data:`_SOURCE` runs one cycle — stimulus scatter,
every settle pass over every level (gather, then scatter), output
gather and flip-flop clock — over the same flat index arrays the numpy
body uses, so a step is one foreign call.

The source is compiled on first use with the system C compiler (``cc``)
into ``__pycache__/`` beside this module, the way CPython caches
``.pyc`` files.  The file name carries a hash of the source, the flags
and the platform, so a cache hit never starts the compiler; builds go
through a temporary file and :func:`os.replace`, so racing processes
are safe; a cached file that is truncated or fails to load is rebuilt.
Without a working compiler :func:`step_function` returns ``None`` and
the simulator runs its numpy body, after one stderr note per process.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["EVAL", "CLOCK", "StepPlan", "step_function"]

#: ``what`` bits of one call: evaluate (stimulus, levels, outputs), clock FFs
EVAL = 1
CLOCK = 2

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

typedef ptrdiff_t idx;

/* Index arrays are flat (B, ...) blocks of absolute slots into v and
   tables.  Where machines differ only by their own offset (m * v_stride
   or m * tab_stride: tab_base, scatter, in_scatter, ff_scatter) the
   kernel reads machine 0's row; operand sources, output bindings and
   FF controls follow each machine's patch and are read per machine. */
struct plan {
    uint8_t *v;                /* (B, v_stride) node values */
    const uint8_t *tables;     /* (B, tab_stride) truth tables */
    const uint8_t *stim;       /* (n_in,) this cycle's stimulus */
    const idx *in_scatter;     /* (B, n_in) input node slots */
    idx B, v_stride, tab_stride, n_in, settle, n_levels;
    const idx *level_len;      /* (n_levels,) LUTs per machine */
    const idx *gather;         /* per level (B, 4L) operand slots */
    const idx *tab_base;       /* per level (B, L) truth-table rows */
    const idx *scatter;        /* per level (B, L) LUT node slots */
    uint8_t *lut_out;          /* scratch, at least L bytes */
    idx n_out;                 /* outputs per machine */
    const idx *out_idx;        /* (B, n_out) */
    uint8_t *out;              /* (B, n_out) */
    idx R;                     /* clocked FF rows per machine */
    const idx *ff_gather;      /* (B, 4R): D | CE | SR | current (unread) */
    const uint8_t *ff_unclocked;  /* (B, R) */
    const idx *ff_scatter;     /* (B, R) FF node slots */
    uint8_t *ff_new;           /* scratch, at least R bytes */
};

/* Machines never read each other's nodes, so the cycle runs machine by
   machine: one machine's values, tables and index rows stay in cache
   across every settle pass.  Within a machine each LUT level gathers
   all its operands before scattering any result, and the FFs all
   sample before any of them updates. */
void repro_step(const struct plan *p, int what)
{
    const idx B = p->B, R = p->R, n_in = p->n_in, n_out = p->n_out;
    uint8_t *v = p->v, *o = p->lut_out, *nw = p->ff_new;
    idx i, m;
    for (m = 0; m < B; m++) {
        uint8_t *vm = v + m * p->v_stride;
        if (what & 1) {
            const uint8_t *tm = p->tables + m * p->tab_stride;
            for (i = 0; i < n_in; i++)
                vm[p->in_scatter[i]] = p->stim[i];
            for (idx pass = 0; pass < p->settle; pass++) {
                const idx *g = p->gather, *tb = p->tab_base, *sc = p->scatter;
                for (idx l = 0; l < p->n_levels; l++) {
                    const idx L = p->level_len[l];
                    const idx *q = g + 4 * m * L;
                    for (i = 0; i < L; i++, q += 4) {
                        unsigned a = v[q[0]] | v[q[1]] << 1 | v[q[2]] << 2 | v[q[3]] << 3;
                        o[i] = tm[tb[i] + (a & 15)];
                    }
                    for (i = 0; i < L; i++)
                        vm[sc[i]] = o[i];
                    g += 4 * B * L; tb += B * L; sc += B * L;
                }
            }
            for (i = 0; i < n_out; i++)
                p->out[m * n_out + i] = v[p->out_idx[m * n_out + i]];
        }
        if (what & 2) {
            const idx *q = p->ff_gather + m * 4 * R, *dst = p->ff_scatter;
            const uint8_t *unclk = p->ff_unclocked + m * R;
            for (i = 0; i < R; i++) {
                uint8_t d = v[q[i]], ce = v[q[R + i]], sr = v[q[2 * R + i]];
                uint8_t cur = vm[dst[i]];
                uint8_t x = (uint8_t)(cur ^ ((cur ^ d) & ce)) > sr;
                nw[i] = unclk[i] ? cur : x;
            }
            for (i = 0; i < R; i++)
                vm[dst[i]] = nw[i];
        }
    }
}
"""

_FLAGS = ("-O2", "-shared", "-fPIC")

_c_idx = ctypes.c_ssize_t
_P = ctypes.c_void_p


class _Plan(ctypes.Structure):
    _fields_ = [
        ("v", _P), ("tables", _P), ("stim", _P), ("in_scatter", _P),
        ("B", _c_idx), ("v_stride", _c_idx), ("tab_stride", _c_idx), ("n_in", _c_idx),
        ("settle", _c_idx), ("n_levels", _c_idx),
        ("level_len", _P), ("gather", _P), ("tab_base", _P), ("scatter", _P),
        ("lut_out", _P),
        ("n_out", _c_idx), ("out_idx", _P), ("out", _P),
        ("R", _c_idx), ("ff_gather", _P), ("ff_unclocked", _P), ("ff_scatter", _P),
        ("ff_new", _P),
    ]


class StepPlan:
    """One simulator's arguments to the compiled step, bound once.

    Holds a reference to every array the C struct points into, so the
    pointers stay valid for the plan's lifetime, and checks each array's
    dtype, size and contiguity against the struct's layout before any
    pointer reaches C.  The native code writes ``v``, the outputs and
    its scratch buffers; the caller keeps the index arrays up to date in
    place (patch, repair) and builds a new plan when it reallocates
    them (compaction).
    """

    def __init__(self, fn, **fields):
        B, R, n_in, n_out = (int(fields[k]) for k in ("B", "R", "n_in", "n_out"))
        slots = B * int(fields["level_len"].sum())
        layout = {
            "v": (np.uint8, B * fields["v_stride"]),
            "tables": (np.uint8, B * fields["tab_stride"]),
            "stim": (np.uint8, n_in),
            "in_scatter": (np.intp, B * n_in),
            "level_len": (np.intp, fields["n_levels"]),
            "gather": (np.intp, 4 * slots),
            "tab_base": (np.intp, slots),
            "scatter": (np.intp, slots),
            "lut_out": (np.uint8, slots),
            "out_idx": (np.intp, B * n_out),
            "out": (np.uint8, B * n_out),
            "ff_gather": (np.intp, 4 * B * R),
            "ff_unclocked": (np.bool_, B * R),
            "ff_scatter": (np.intp, B * R),
            "ff_new": (np.uint8, B * R),
        }
        self._fn = fn
        self._arrays = {}
        for name, (dtype, size) in layout.items():
            arr = fields[name]
            if arr.dtype != dtype or arr.size != size or not arr.flags.c_contiguous:
                raise ValueError(
                    f"native plan field {name!r} must be {size} contiguous {np.dtype(dtype)}"
                )
            self._arrays[name] = arr
            fields[name] = arr.ctypes.data
        self._struct = _Plan(**fields)
        self._ref = ctypes.byref(self._struct)

    def __call__(self, what: int) -> None:
        self._fn(self._ref, what)


_UNSET = object()
#: memoized :func:`step_function` result (``None``: numpy fallback)
_step = _UNSET


def _cache_dir() -> Path:
    """``__pycache__/`` beside this module, or a per-process temp dir."""
    d = Path(__file__).resolve().parent / "__pycache__"
    try:
        d.mkdir(exist_ok=True)
        if os.access(d, os.W_OK):
            return d
    except OSError:
        pass
    tmp = tempfile.mkdtemp(prefix="repro-native-")
    atexit.register(shutil.rmtree, tmp, ignore_errors=True)
    return Path(tmp)


def _lib_name() -> str:
    key = "\0".join((_SOURCE, *_FLAGS, sys.platform, platform.machine()))
    return f"repro_step-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _compile(cc: str, target: Path) -> None:
    """Build the library at ``target`` atomically (temp file + replace)."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_FLAGS, "-x", "c", "-", "-o", tmp],
            input=_SOURCE.encode(),
            check=True,
            capture_output=True,
            timeout=120,
        )
        with open(tmp, "r+b") as f:
            f.write(hashlib.sha256(f.read()).digest())
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _intact(path: Path) -> bool:
    """True when the file ends in the sha256 of everything before it.

    The loader maps a library without reading it whole, so a truncated
    one can crash the process (SIGBUS) instead of failing to load; the
    trailer :func:`_compile` appends catches that before ``dlopen``.
    The loader ignores bytes past the last section.
    """
    data = path.read_bytes()
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def _bind(path: Path):
    lib = ctypes.CDLL(str(path))
    fn = lib.repro_step
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int]
    fn.restype = None
    return fn


def _load():
    """Load the cached library, building it on a miss; ``None`` if impossible."""
    path = _cache_dir() / _lib_name()
    try:
        if _intact(path):
            return _bind(path)
    except OSError:
        pass  # missing, unreadable or not loadable: rebuild it
    cc = shutil.which("cc")
    if cc is None:
        reason = "no C compiler (cc) on PATH"
    else:
        try:
            _compile(cc, path)
            return _bind(path)
        except (OSError, subprocess.SubprocessError) as exc:
            reason = f"building the native step failed ({exc})"
    print(f"repro: {reason}; the reference kernel runs its numpy path", file=sys.stderr)
    return None


def step_function():
    """The compiled ``repro_step``, or ``None`` when it cannot be built.

    Memoized per process; the first call may compile (about 0.1 s).
    """
    global _step
    if _step is _UNSET:
        _step = _load()
    return _step
