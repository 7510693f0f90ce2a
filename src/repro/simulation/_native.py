"""Optional compiled gate-sweep kernel for the vectorized simulator.

The word-sliced engine in :mod:`repro.simulation.vectorized` evaluates the
gate list with grouped numpy bitwise operations.  That is portable, but on
deep circuits the per-level ufunc dispatch overhead still dominates at small
word counts.  This module removes that last layer of interpreter overhead by
compiling a tiny C sweep kernel at runtime (one ``gcc -O2 -shared`` call on
first use) and driving it through :mod:`ctypes` over the *same* uint64 word
tables the numpy path uses.

The kernel is strictly optional:

* if no C compiler is available, compilation fails, or the environment
  variable ``REPRO_NATIVE=0`` is set, :func:`load_kernel` returns ``None``
  and the engine silently falls back to the grouped-numpy sweep;
* with ``REPRO_PROGRAM_CACHE`` set, the compiled shared object is memoized
  on disk next to the pickled program cache (source-hash-versioned file
  name, atomic rename), so fresh processes — spawn-mode shard workers,
  ``repro batch`` subprocesses — dlopen the cached object instead of paying
  a compiler invocation each; corrupt or stale objects are silently
  recompiled.  Without a cache directory the object lives in a temporary
  directory that is removed immediately after loading (the mapping stays
  valid on POSIX), so no build artefacts are left behind.

This module reads the cache directory straight from the environment instead
of importing :mod:`repro.circuits.program` (which imports the opcodes below —
the import must stay one-directional).

The kernel also counts each cycle's toggles per (capacitance class, lane)
(``class_lane_counts``); the vectorized engine's numpy fallback computes the
same integers.  Both sweeps and both counts are exercised against each other
in the test suite.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* One zero-delay combinational sweep over lane-packed uint64 words.
 *
 * values : (num_rows, num_words) row-major matrix of lane words; row ids in
 *          the gate tables index into it.
 * ops    : per-gate opcode, low 2 bits select the reduction
 *          (0 = AND, 1 = OR, 2 = XOR) and bit 2 requests output inversion.
 * in_ptr : CSR-style fan-in offsets into in_rows, length num_gates + 1.
 * mask   : per-word lane mask applied after inversion so unused lanes of the
 *          last word stay zero.
 */
void zd_sweep(uint64_t *values, int64_t num_words, int64_t num_gates,
              const uint8_t *ops, const int64_t *out_rows,
              const int64_t *in_ptr, const int64_t *in_rows,
              const uint64_t *mask)
{
    for (int64_t g = 0; g < num_gates; g++) {
        const uint8_t op = ops[g];
        const int64_t lo = in_ptr[g];
        const int64_t hi = in_ptr[g + 1];
        uint64_t *out = values + out_rows[g] * num_words;
        const uint64_t *first = values + in_rows[lo] * num_words;
        for (int64_t w = 0; w < num_words; w++)
            out[w] = first[w];
        for (int64_t k = lo + 1; k < hi; k++) {
            const uint64_t *src = values + in_rows[k] * num_words;
            switch (op & 3) {
            case 0:
                for (int64_t w = 0; w < num_words; w++) out[w] &= src[w];
                break;
            case 1:
                for (int64_t w = 0; w < num_words; w++) out[w] |= src[w];
                break;
            default:
                for (int64_t w = 0; w < num_words; w++) out[w] ^= src[w];
                break;
            }
        }
        if (op & 4)
            for (int64_t w = 0; w < num_words; w++)
                out[w] = ~out[w] & mask[w];
    }
}

/* Re-evaluate an arbitrary gate subset (the active frontier of the
 * event-driven engine) without touching the net rows.
 *
 * gate_ids : indices (into the per-gate tables) of the gates to evaluate.
 * out      : (num_active, num_words) buffer receiving each gate's computed
 *            output words, in gate_ids order.  The caller decides what to do
 *            with them (apply immediately for zero-delay gates, schedule on
 *            the time wheel otherwise), so values stays read-only here.
 */
void ed_eval(const uint64_t *values, int64_t num_words,
             const int64_t *gate_ids, int64_t num_active,
             const uint8_t *ops, const int64_t *in_ptr, const int64_t *in_rows,
             const uint64_t *mask, uint64_t *out)
{
    for (int64_t i = 0; i < num_active; i++) {
        const int64_t g = gate_ids[i];
        const uint8_t op = ops[g];
        const int64_t lo = in_ptr[g];
        const int64_t hi = in_ptr[g + 1];
        uint64_t *dst = out + i * num_words;
        if (lo == hi) { /* constant cell: never scheduled, but stay safe */
            for (int64_t w = 0; w < num_words; w++) dst[w] = 0;
            continue;
        }
        const uint64_t *first = values + in_rows[lo] * num_words;
        for (int64_t w = 0; w < num_words; w++)
            dst[w] = first[w];
        for (int64_t k = lo + 1; k < hi; k++) {
            const uint64_t *src = values + in_rows[k] * num_words;
            switch (op & 3) {
            case 0:
                for (int64_t w = 0; w < num_words; w++) dst[w] &= src[w];
                break;
            case 1:
                for (int64_t w = 0; w < num_words; w++) dst[w] |= src[w];
                break;
            default:
                for (int64_t w = 0; w < num_words; w++) dst[w] ^= src[w];
                break;
            }
        }
        if (op & 4)
            for (int64_t w = 0; w < num_words; w++)
                dst[w] = ~dst[w] & mask[w];
    }
}

/* Per-(capacitance class, lane) toggle counts of one cycle.
 *
 * prev, cur : (num_rows, num_words) lane words before and after the cycle.
 * row_class : class index of each row (see CapacitanceClasses).
 * counts    : (num_classes, num_words * 64) matrix, zeroed by the caller;
 *             a toggle of lane k in a row of class c adds one to
 *             counts[c * num_words * 64 + k].  The set bits of every
 *             transition word are walked with count-trailing-zeros.
 */
void class_lane_counts(const uint64_t *prev, const uint64_t *cur,
                       int64_t num_rows, int64_t num_words,
                       const int64_t *row_class, int64_t *counts)
{
    const int64_t stride = num_words * 64;
    for (int64_t r = 0; r < num_rows; r++) {
        int64_t *lanes = counts + row_class[r] * stride;
        const uint64_t *a = prev + r * num_words;
        const uint64_t *b = cur + r * num_words;
        for (int64_t w = 0; w < num_words; w++) {
            uint64_t x = a[w] ^ b[w];
            int64_t *word_lanes = lanes + w * 64;
            while (x) {
                word_lanes[__builtin_ctzll(x)]++;
                x &= x - 1;
            }
        }
    }
}
"""

#: Opcodes understood by the kernel (and mirrored by the numpy sweep).
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_INVERT = 4

#: Bumped whenever the on-disk shared-object naming/ABI conventions change;
#: cached objects with an older version in their file name are never loaded.
KERNEL_CACHE_VERSION = 1

_kernel: ctypes.CDLL | None = None
_kernel_failed = False
_compiler_invocations = 0


def native_enabled() -> bool:
    """True unless the user disabled the compiled kernel via ``REPRO_NATIVE=0``."""
    return os.environ.get("REPRO_NATIVE", "1") not in ("", "0", "false", "no")


def find_compiler() -> str | None:
    """Path of the first available C compiler (``cc``/``gcc``/``clang``), or ``None``."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def compiler_invocations() -> int:
    """Number of C-compiler subprocesses this process has launched.

    A warm-cache run must build every engine it needs with **zero**
    compiler invocations (in-process memo plus the on-disk shared object).
    """
    return _compiler_invocations


def source_digest(source: str) -> str:
    """Stable short hash of a C translation unit (versions the cached object)."""
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def _kernel_cache_dir() -> str | None:
    """The shared-object cache directory, from ``REPRO_PROGRAM_CACHE``.

    Same directory as the pickled program cache (see
    :func:`repro.circuits.program.program_cache_dir` — duplicated here
    because the import must stay one-directional).
    """
    value = os.environ.get("REPRO_PROGRAM_CACHE", "").strip()
    return value or None


def _invoke_compiler(source: str, library_path: str) -> bool:
    """Compile *source* into *library_path*; False on any failure."""
    global _compiler_invocations
    compiler = find_compiler()
    if compiler is None:
        return False
    workdir = tempfile.mkdtemp(prefix="repro-kernel-")
    try:
        source_path = os.path.join(workdir, "kernel.c")
        with open(source_path, "w") as handle:
            handle.write(source)
        _compiler_invocations += 1
        result = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", library_path, source_path],
            capture_output=True,
            timeout=300,
        )
        return result.returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _load_library(path: str) -> ctypes.CDLL | None:
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


def compile_and_load(source: str, tag: str) -> ctypes.CDLL | None:
    """Compile *source* (or reuse its disk-cached object) and ``dlopen`` it.

    With ``REPRO_PROGRAM_CACHE`` set, the object is cached as
    ``{tag}.k{KERNEL_CACHE_VERSION}.{source_digest}.so`` — the digest in the
    file name makes stale objects (older source) simply miss, and a corrupt
    cached file is unlinked and recompiled.  Writes go through a unique
    temporary name in the same directory plus ``os.replace``, so concurrent
    processes never observe a half-written object.  Without a cache
    directory the object is built in a temporary directory that is removed
    right after loading.  Returns ``None`` when no compiler is available
    (and no cached object exists) or compilation fails.
    """
    directory = _kernel_cache_dir()
    if directory is None:
        return _compile_in_tempdir(source)
    digest = source_digest(source)
    path = os.path.join(directory, f"{tag}.k{KERNEL_CACHE_VERSION}.{digest}.so")
    if os.path.exists(path):
        library = _load_library(path)
        if library is not None:
            return library
        try:
            os.unlink(path)  # corrupt (e.g. truncated by a crash): recompile
        except OSError:
            pass
    temp = f"{path}.tmp{os.getpid()}"
    try:
        os.makedirs(directory, exist_ok=True)
        if not _invoke_compiler(source, temp):
            return _cleanup_temp(temp)
        os.replace(temp, path)
    except OSError:
        return _cleanup_temp(temp)
    for stale in glob.glob(os.path.join(directory, f"{tag}.k*.so")):
        if stale != path:
            try:
                os.unlink(stale)
            except OSError:
                pass
    return _load_library(path)


def _cleanup_temp(temp: str) -> None:
    try:
        os.unlink(temp)
    except OSError:
        pass
    return None


def _compile_in_tempdir(source: str) -> ctypes.CDLL | None:
    workdir = tempfile.mkdtemp(prefix="repro-kernel-")
    try:
        library_path = os.path.join(workdir, "kernel.so")
        if not _invoke_compiler(source, library_path):
            return None
        return _load_library(library_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _compile_kernel() -> ctypes.CDLL | None:
    library = compile_and_load(_KERNEL_SOURCE, "generic")
    if library is None:
        return None

    uint64_p = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
    uint8_p = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
    int64_p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    library.zd_sweep.restype = None
    library.zd_sweep.argtypes = [
        uint64_p,  # values
        ctypes.c_int64,  # num_words
        ctypes.c_int64,  # num_gates
        uint8_p,  # ops
        int64_p,  # out_rows
        int64_p,  # in_ptr
        int64_p,  # in_rows
        uint64_p,  # lane mask
    ]
    library.ed_eval.restype = None
    library.ed_eval.argtypes = [
        uint64_p,  # values
        ctypes.c_int64,  # num_words
        int64_p,  # gate_ids
        ctypes.c_int64,  # num_active
        uint8_p,  # ops
        int64_p,  # in_ptr
        int64_p,  # in_rows
        uint64_p,  # lane mask
        uint64_p,  # out
    ]
    return library


_COUNT_PROTOTYPE = ctypes.CFUNCTYPE(
    None,
    ctypes.c_void_p,  # prev
    ctypes.c_void_p,  # cur
    ctypes.c_int64,  # num_rows
    ctypes.c_int64,  # num_words
    ctypes.c_void_p,  # row_class
    ctypes.c_void_p,  # counts
)

_SWEEP_PROTOTYPE = ctypes.CFUNCTYPE(
    None,
    ctypes.c_void_p,  # values
    ctypes.c_int64,  # num_words
    ctypes.c_int64,  # num_gates
    ctypes.c_void_p,  # ops
    ctypes.c_void_p,  # out_rows
    ctypes.c_void_p,  # in_ptr
    ctypes.c_void_p,  # in_rows
    ctypes.c_void_p,  # lane mask
)


def bind_sweep(kernel, flat, num_words, num_gates, ops, out_rows, in_ptr, in_rows, mask):
    """Bind ``zd_sweep`` to fixed, preallocated buffers and return a 0-arg call.

    The caller guarantees that every array outlives the returned closure and
    is never reallocated; binding the raw data pointers once keeps the
    per-sweep ctypes marshalling cost off the hot path.
    """
    sweep = _SWEEP_PROTOTYPE(("zd_sweep", kernel))
    arguments = (
        flat.ctypes.data,
        num_words,
        num_gates,
        ops.ctypes.data,
        out_rows.ctypes.data,
        in_ptr.ctypes.data,
        in_rows.ctypes.data,
        mask.ctypes.data,
    )

    def call() -> None:
        sweep(*arguments)

    return call


def bind_class_counts(kernel, prev, cur, num_rows, num_words, row_class, counts):
    """Bind ``class_lane_counts`` to fixed buffers; return a 0-arg call.

    The caller zeroes *counts* before each call and keeps every array alive
    and unreallocated for the lifetime of the returned closure.
    """
    count = _COUNT_PROTOTYPE(("class_lane_counts", kernel))
    arguments = (
        prev.ctypes.data,
        cur.ctypes.data,
        num_rows,
        num_words,
        row_class.ctypes.data,
        counts.ctypes.data,
    )

    def call() -> None:
        count(*arguments)

    return call


def load_kernel() -> ctypes.CDLL | None:
    """Return the compiled sweep kernel, or ``None`` when unavailable."""
    global _kernel, _kernel_failed
    if not native_enabled():
        return None
    if _kernel is None and not _kernel_failed:
        _kernel = _compile_kernel()
        _kernel_failed = _kernel is None
    return _kernel


def clear_kernel_memo() -> None:
    """Forget the loaded generic kernel so the next load retries (testing support)."""
    global _kernel, _kernel_failed
    _kernel = None
    _kernel_failed = False


def native_kernel_available() -> bool:
    """True when the compiled sweep kernel can be (or has been) loaded."""
    return load_kernel() is not None
