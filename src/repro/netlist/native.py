"""The reference kernel's cycle and its verdict loop as compiled C.

:class:`~repro.netlist.simulator.BatchSimulator` spends its time making
numpy calls, five per LUT level and settle pass; the arithmetic inside
them is trivial.  :data:`_SOURCE` holds two entry points over the same
flat index arrays the numpy body uses:

* ``repro_step`` runs one cycle of the batch — stimulus scatter, every
  settle pass over every level (gather, then scatter), output gather
  and flip-flop clock — so a step is one foreign call;
* ``repro_verdicts`` runs a whole verdict window *machine-major*: each
  machine steps, compares its outputs to the golden trace, is repaired
  on its first mismatch and is classified, all before the next machine
  starts — the paper's per-bit inject / run / compare / repair loop.
  A machine stops at its own verdict, so there is no per-cycle Python
  and no compaction.

The source is compiled on first use with the system C compiler (``cc``)
into ``__pycache__/`` beside this module, the way CPython caches
``.pyc`` files.  The file name carries a hash of the source, the flags
and the platform, so a cache hit never starts the compiler; builds go
through a temporary file and :func:`os.replace`, so racing processes
are safe; a cached file that is truncated or fails to load is rebuilt.
Without a working compiler :func:`kernel` returns ``None`` and the
simulator runs its numpy body, after one stderr note per process.
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
from typing import NamedTuple

import numpy as np

__all__ = ["EVAL", "CLOCK", "Kernel", "StepPlan", "VerdictPlan", "kernel"]

#: ``what`` bits of one call: evaluate (stimulus, levels, outputs), clock FFs
EVAL = 1
CLOCK = 2

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef ptrdiff_t idx;

/* Index arrays are flat (B, ...) blocks of absolute slots into v and
   tables.  Where machines differ only by their own offset (m * v_stride
   or m * tab_stride: tab_base, scatter, in_scatter, ff_scatter) the
   kernel reads machine 0's row; operand sources, output bindings and
   FF controls follow each machine's patch and are read per machine. */
struct plan {
    uint8_t *v;                /* (B, v_stride) node values */
    uint8_t *tables;           /* (B, tab_stride) truth tables */
    const uint8_t *stim;       /* (n_in,) this cycle's stimulus */
    const idx *in_scatter;     /* (B, n_in) input node slots */
    idx B, v_stride, tab_stride, n_in, settle, n_levels;
    const idx *level_len;      /* (n_levels,) LUTs per machine */
    idx *gather;               /* per level (B, 4L) operand slots */
    const idx *tab_base;       /* per level (B, L) truth-table rows */
    const idx *scatter;        /* per level (B, L) LUT node slots */
    uint8_t *lut_out;          /* scratch, at least L bytes */
    idx n_out;                 /* outputs per machine */
    idx *out_idx;              /* (B, n_out) */
    uint8_t *out;              /* (B, n_out) */
    idx R;                     /* clocked FF rows per machine */
    idx *ff_gather;            /* (B, 4R): D | CE | SR | current (unread) */
    uint8_t *ff_unclocked;     /* (B, R) */
    const idx *ff_scatter;     /* (B, R) FF node slots */
    uint8_t *ff_new;           /* scratch, at least R bytes */
};

/* One cycle of machine m.  Machines never read each other's nodes, so
   one machine's values, tables and index rows stay in cache across
   every settle pass.  Each LUT level gathers all its operands before
   scattering any result, and the FFs all sample before any of them
   updates. */
static void machine_cycle(const struct plan *p, idx m, const uint8_t *stim, int what)
{
    const idx B = p->B, R = p->R, n_in = p->n_in, n_out = p->n_out;
    uint8_t *v = p->v, *o = p->lut_out, *nw = p->ff_new;
    uint8_t *vm = v + m * p->v_stride;
    idx i;
    if (what & 1) {
        const uint8_t *tm = p->tables + m * p->tab_stride;
        for (i = 0; i < n_in; i++)
            vm[p->in_scatter[i]] = stim[i];
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

/* One cycle of the whole batch, machine by machine. */
void repro_step(const struct plan *p, int what)
{
    for (idx m = 0; m < p->B; m++)
        machine_cycle(p, m, p->stim, what);
}

/* The verdict protocol over a whole stimulus window, machine-major:
   machine m runs every cycle it needs to its own verdict before
   machine m + 1 starts.  Indices in the gold_* rows are relative to
   machine 0 (a repair adds m * v_stride). */
struct verdict {
    const uint8_t *stim;       /* (T, n_in) stimulus window */
    const uint8_t *ref;        /* (T, n_out) golden outputs, 0/1 */
    idx T, detect, converge;   /* window, detect cycles, converge run */
    idx n_machines;            /* machines 0 .. n_machines - 1 get verdicts */
    idx companion;             /* golden companion slot (retire only) */
    int detect_only;           /* stop at the first mismatch, no repair */
    int retire;                /* seal by state equality (rules 2 and 3) */
    int rule3;                 /* suffix, quiet and flips are given */
    uint8_t *comp_state;       /* (T, v_stride) companion state per cycle */
    const idx *gold_gather;    /* per level (4L) golden operand nodes */
    const uint8_t *gold_tables;    /* (tab_stride) */
    const idx *gold_ff;        /* (3R) golden D | CE | SR nodes */
    const uint8_t *gold_unclocked; /* (R) */
    const idx *gold_out;       /* (n_out) golden output nodes */
    idx n_const;
    const idx *const_nodes;    /* (n_const) CONST nodes; keepers excluded */
    const uint8_t *const_vals; /* (n_const) their golden values */
    idx n_luts;
    const uint16_t *suffix;    /* (T + 1, n_luts) golden address suffix */
    const uint8_t *quiet;      /* (n_machines) patch flips tables only */
    const idx *flip_ptr;       /* (n_machines + 1) CSR over flipped rows */
    const idx *flip_row;
    const uint16_t *flip_mask;
    int64_t *first_error;      /* (n_machines) results */
    int64_t *recovered;
    int64_t *stop;             /* last cycle the machine ran, T - 1 if all */
    uint8_t *persistent;
};

static int mismatch(const struct plan *p, idx m, const uint8_t *ref)
{
    const uint8_t *o = p->out + m * p->n_out;
    for (idx i = 0; i < p->n_out; i++)
        if (o[i] != ref[i])
            return 1;
    return 0;
}

/* A configuration scrub of machine m: golden wiring, tables, FF fields
   and output bindings, and golden CONST values (half-latch keepers are
   state and stay). */
static void repair(const struct plan *p, const struct verdict *q, idx m)
{
    const idx B = p->B, R = p->R, n_out = p->n_out, off = m * p->v_stride;
    idx *g = p->gather, i;
    const idx *gg = q->gold_gather;
    for (idx l = 0; l < p->n_levels; l++) {
        const idx L4 = 4 * p->level_len[l];
        idx *row = g + m * L4;
        for (i = 0; i < L4; i++)
            row[i] = gg[i] + off;
        g += B * L4; gg += L4;
    }
    memcpy(p->tables + m * p->tab_stride, q->gold_tables, (size_t)p->tab_stride);
    idx *f = p->ff_gather + m * 4 * R;
    for (i = 0; i < 3 * R; i++)
        f[i] = q->gold_ff[i] + off;
    memcpy(p->ff_unclocked + m * R, q->gold_unclocked, (size_t)R);
    for (i = 0; i < n_out; i++)
        p->out_idx[m * n_out + i] = q->gold_out[i] + off;
    uint8_t *vm = p->v + off;
    for (i = 0; i < q->n_const; i++)
        vm[q->const_nodes[i]] = q->const_vals[i];
}

/* Golden never addresses an entry machine m's patch flips from cycle
   t + 1 on. */
static int never_addressed(const struct verdict *q, idx m, idx t)
{
    const uint16_t *suf = q->suffix + (t + 1) * q->n_luts;
    for (idx k = q->flip_ptr[m]; k < q->flip_ptr[m + 1]; k++)
        if (q->flip_mask[k] & suf[q->flip_row[k]])
            return 0;
    return 1;
}

void repro_verdicts(const struct plan *p, const struct verdict *q)
{
    const idx T = q->T, vs = p->v_stride, n_in = p->n_in, n_out = p->n_out;
    const idx c = q->companion;
    idx comp_t = 0;  /* companion cycles recorded in comp_state */
    for (idx m = 0; m < q->n_machines; m++) {
        const uint8_t *vm = p->v + m * vs;
        int phase = 0, persistent = 0;  /* 0 watch, 1 converge, 2 done */
        idx t, run = 0, first = -1, recovered = -1;
        for (t = 0; t < T; t++) {
            machine_cycle(p, m, q->stim + t * n_in, 3);
            const int bad = mismatch(p, m, q->ref + t * n_out);
            if (q->detect_only) {
                if (bad) {
                    first = t;
                    break;
                }
                continue;
            }
            if (phase == 0 && bad) {
                first = t;
                repair(p, q, m);
                phase = 1;
                run = 0;
            }
            if (phase == 0 && t == q->detect - 1)
                phase = 2;
            if (phase == 1) {
                if (bad)
                    run = 0;
                else if (++run >= q->converge) {
                    recovered = t;
                    phase = 2;
                }
            }
            if (q->retire && (phase == 1 || (phase == 0 && q->rule3 && q->quiet[m]
                                              && never_addressed(q, m, t)))) {
                for (; comp_t <= t; comp_t++) {
                    machine_cycle(p, c, q->stim + comp_t * n_in, 3);
                    memcpy(q->comp_state + comp_t * vs, p->v + c * vs, (size_t)vs);
                }
                if (memcmp(vm, q->comp_state + t * vs, (size_t)vs) == 0) {
                    /* Golden state on golden hardware: every later cycle
                       matches, so convergence is closed-form. */
                    if (phase == 1) {
                        const idx u = t + (q->converge - run);
                        if (u <= T - 1)
                            recovered = u;
                        else
                            persistent = 1;
                    }
                    phase = 2;
                }
            }
            if (phase == 2)
                break;
        }
        q->first_error[m] = first;
        q->recovered[m] = recovered;
        q->persistent[m] = (uint8_t)(persistent || phase == 1);
        q->stop[m] = t < T ? t : T - 1;
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


class _Verdict(ctypes.Structure):
    _fields_ = [
        ("stim", _P), ("ref", _P),
        ("T", _c_idx), ("detect", _c_idx), ("converge", _c_idx),
        ("n_machines", _c_idx), ("companion", _c_idx),
        ("detect_only", ctypes.c_int), ("retire", ctypes.c_int), ("rule3", ctypes.c_int),
        ("comp_state", _P),
        ("gold_gather", _P), ("gold_tables", _P), ("gold_ff", _P),
        ("gold_unclocked", _P), ("gold_out", _P),
        ("n_const", _c_idx), ("const_nodes", _P), ("const_vals", _P),
        ("n_luts", _c_idx),
        ("suffix", _P), ("quiet", _P), ("flip_ptr", _P), ("flip_row", _P), ("flip_mask", _P),
        ("first_error", _P), ("recovered", _P), ("stop", _P), ("persistent", _P),
    ]


def _pointers(layout: dict, fields: dict) -> dict:
    """Check every array of ``fields`` against ``layout``; swap in addresses.

    Returns the arrays, which the caller must keep alive as long as the
    struct built from ``fields`` can reach C.
    """
    arrays = {}
    for name, (dtype, size) in layout.items():
        arr = fields[name]
        if arr.dtype != dtype or arr.size != size or not arr.flags.c_contiguous:
            raise ValueError(
                f"native plan field {name!r} must be {size} contiguous {np.dtype(dtype)}"
            )
        arrays[name] = arr
        fields[name] = arr.ctypes.data
    return arrays


class StepPlan:
    """One simulator's arguments to the compiled step, bound once.

    Holds a reference to every array the C struct points into, so the
    pointers stay valid for the plan's lifetime, and checks each array's
    dtype, size and contiguity against the struct's layout before any
    pointer reaches C.  The native code writes ``v``, the outputs and
    its scratch buffers (and, in a verdict run, a repaired machine's
    index rows and tables); the caller keeps the index arrays up to date
    in place (patch, repair) and builds a new plan when it reallocates
    them (compaction).
    """

    def __init__(self, fn, **fields):
        B, R, n_in, n_out = (int(fields[k]) for k in ("B", "R", "n_in", "n_out"))
        #: LUT slots of one machine, summed over levels
        self.lut_slots = int(fields["level_len"].sum())
        self.B, self.R, self.n_in, self.n_out = B, R, n_in, n_out
        self.v_stride = int(fields["v_stride"])
        self.tab_stride = int(fields["tab_stride"])
        slots = B * self.lut_slots
        layout = {
            "v": (np.uint8, B * self.v_stride),
            "tables": (np.uint8, B * self.tab_stride),
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
        self._arrays = _pointers(layout, fields)
        self._struct = _Plan(**fields)
        self._ref = ctypes.byref(self._struct)

    def __call__(self, what: int) -> None:
        self._fn(self._ref, what)


class VerdictPlan:
    """Arguments of one compiled verdict run over a bound :class:`StepPlan`.

    Checks every array as :class:`StepPlan` does, sized from the step
    plan (which also gives ``n_luts``) and the scalars in ``fields``;
    calling the plan runs the whole window.  Arrays a mode leaves
    unread (the repair rows in a detect-only run, the companion buffer
    without ``retire``, the rule-3 arrays without ``rule3``) must be
    empty.
    """

    def __init__(self, fn, step: StepPlan, **fields):
        T, n = int(fields["T"]), int(fields["n_machines"])
        verdicts = not fields["detect_only"]
        retire = verdicts and bool(fields["retire"])
        rule3 = retire and bool(fields["rule3"])
        if not 0 <= n <= step.B:
            raise ValueError(f"native verdict plan: {n} machines in a batch of {step.B}")
        if retire and not n <= int(fields["companion"]) < step.B:
            raise ValueError("native verdict plan: companion slot outside the batch")
        n_const = int(fields["n_const"]) if verdicts else 0
        n_flips = int(fields["flip_ptr"][-1]) if rule3 and fields["flip_ptr"].size else 0
        fields["n_luts"] = step.tab_stride // 16
        layout = {
            "stim": (np.uint8, T * step.n_in),
            "ref": (np.uint8, T * step.n_out),
            "comp_state": (np.uint8, T * step.v_stride if retire else 0),
            "gold_gather": (np.intp, 4 * step.lut_slots if verdicts else 0),
            "gold_tables": (np.uint8, step.tab_stride if verdicts else 0),
            "gold_ff": (np.intp, 3 * step.R if verdicts else 0),
            "gold_unclocked": (np.bool_, step.R if verdicts else 0),
            "gold_out": (np.intp, step.n_out if verdicts else 0),
            "const_nodes": (np.intp, n_const),
            "const_vals": (np.uint8, n_const),
            "suffix": (np.uint16, (T + 1) * fields["n_luts"] if rule3 else 0),
            "quiet": (np.bool_, n if rule3 else 0),
            "flip_ptr": (np.intp, n + 1 if rule3 else 0),
            "flip_row": (np.intp, n_flips),
            "flip_mask": (np.uint16, n_flips),
            "first_error": (np.int64, n),
            "recovered": (np.int64, n),
            "stop": (np.int64, n),
            "persistent": (np.uint8, n),
        }
        # The repair rows and rule-3 rows are indices C follows unchecked.
        bounds = {
            "gold_gather": step.v_stride, "gold_ff": step.v_stride,
            "gold_out": step.v_stride, "const_nodes": step.v_stride,
            "flip_row": fields["n_luts"], "flip_ptr": n_flips + 1,
        }
        for name, stop in bounds.items():
            arr = fields[name]
            if arr.size and (arr.min() < 0 or arr.max() >= stop):
                raise ValueError(f"native plan field {name!r} indexes outside [0, {stop})")
        if np.any(np.diff(fields["flip_ptr"]) < 0):
            raise ValueError("native plan field 'flip_ptr' must be nondecreasing")
        self._fn = fn
        self._step = step
        self._arrays = _pointers(layout, fields)
        self._struct = _Verdict(**fields)

    def __call__(self) -> None:
        self._fn(self._step._ref, ctypes.byref(self._struct))


class Kernel(NamedTuple):
    """The compiled entry points: one batch cycle, one verdict window."""

    step: object
    verdicts: object


_UNSET = object()
#: memoized :func:`kernel` result (``None``: numpy fallback)
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


def _bind(path: Path) -> Kernel:
    lib = ctypes.CDLL(str(path))
    step, verdicts = lib.repro_step, lib.repro_verdicts
    step.argtypes = [ctypes.c_void_p, ctypes.c_int]
    verdicts.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
    step.restype = verdicts.restype = None
    return Kernel(step, verdicts)


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


def kernel() -> Kernel | None:
    """The compiled entry points, or ``None`` when they cannot be built.

    Memoized per process; the first call may compile (about 0.1 s).
    """
    global _step
    if _step is _UNSET:
        _step = _load()
    return _step
