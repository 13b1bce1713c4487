"""Build, cache, load and self-test ``native.c``.

:func:`load` compiles the C file next to this module with the system
compiler on first use, keeps the library under the *user's* cache
directory (``${XDG_CACHE_HOME:-~/.cache}/repro-kernels``: built once per
machine, not once per artifact cache or temp dir) under a name that
digests everything the machine code depends on and the library's own
bytes (a damaged file is rebuilt, not loaded), and adopts each entry
point only if the public calls that reach it -- ``FusedKernels``
methods, EVP solves and applies, the contexts' spans, on drawn operands
-- give bit for bit what the same calls give without it, which is what
runs wherever the library is missing (:mod:`repro.kernels.selftest`
declares them).  That is what catches a compiler that contracts ``a * b
+ c`` or a numpy that changes its summation order, where a version
check would not.  Nothing here raises and nothing warns: no compiler, a
failed build, an unwritable cache or a failed self-test leave the
caller (:class:`~repro.kernels.fused.FusedKernels`) on the numpy
reference for that entry point's loop, and :attr:`Native.status` says
which.
"""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("native.c")
#: Never ``-ffast-math``; contraction off: the arithmetic is the contract.
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
_I, _P = ctypes.c_int64, ctypes.c_void_p
#: Entry point -> (restype, argtypes); pointers travel as addresses.
_SIGNATURES = {
    "dia_sweep": (None, (_I, _I, _P, _I, _P, _P, _P, _P)),
    "update_chain": (None, (_P,)),
    "pairwise_dot": (ctypes.c_double, (_P, _P, _P, _P, _P, _P)),
    "evp_march": (None, (_P, _I, _P, _P, _P, _P, _P)),
    "evp_edges": (None, (_P, _P, _P, _P, _P, _P, _P)),
    "chebyshev_span": (None, (_I, _P, _P, _P, _P, _P, _P, _P, _P, _P)),
    "evp_gather": (None, (_P, _I, _P, _P)),
    "evp_scatter": (None, (_P, _I, _P, _P, _P)),
    "chrongear_span": (None, (_P, _I)),
    "evp_step": (None, (_P, _I)),
}
#: ``struct`` formats of an ``update_chain`` program: the row geometry,
#: ``ncols`` and the step count, then per step kind, a, b, the
#: per-column forms of a and b (0: use the double), x, y.
CHAIN_FORMAT, STEP_FORMAT = "7q", "qddPPPP"
#: ``native.c``'s ``CHUNK``: the widest batch a chain tiles coefficients for.
MAX_CHAIN_COLUMNS = 1024
#: ``native.c``'s ``SPAN_ROWS`` and ``MAX_DEPTH``: the rows of ``r'`` a
#: ChronGear span keeps (twice over) and the values per column of its
#: pairwise stacks.
SPAN_ROWS, MAX_DEPTH = 5, 64
#: Mode bits of a ChronGear span call: the handed iteration's four
#: recurrences, the next iteration's head, keep the chain's ``x`` update
#: for the next call, apply the kept one first.
CHAIN, HEAD, HOLD, HELD = 1, 2, 4, 8
#: Mode bits of an ``evp_step`` call: the tail of one EVP iteration
#: (P-CSI's or ChronGear's, by the program), the head of the next, the
#: halo copy alone, ChronGear's four recurrences (their ``x`` update kept
#: when a head follows and none is kept yet), the kept ``x`` update first,
#: a tail's halo copy and ``b - A x`` alone (the cross-check's residual).
EVP_TAIL, EVP_HEAD, EVP_HALO, EVP_CHAIN, EVP_HELD, EVP_RESIDUAL = (
    1, 2, 4, 8, 16, 32)
#: ``struct`` format of the halo copy's program: ``ncols``, the table
#: lengths, then the ``dst`` / ``src`` / ``zero`` tables and the stack.
HALO_FORMAT = "3q4P"


class EvpGroup(ctypes.Structure):
    """``native.c``'s ``evp_group``: one shape group's ``evp_march`` and
    ``evp_edges`` operands."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "march", "coef", "inv_ne", "rhs", "state", "ring", "edges",
        "coef_off", "src_rows", "edge_rhs", "f")]


class EvpProgram(ctypes.Structure):
    """``native.c``'s ``evp_program`` (section 9): the halo copy, the
    preconditioner's groups and boundary programs, the sweep and its row
    geometry, P-CSI's four vectors and weights slot, then ChronGear's
    extension -- ``s``, ``p``, the kept ``r'`` and ``z``, the
    coefficient and dot slots, the dots' weights and block windows --
    left NULL by a P-CSI program, and last a checker's sums of the next
    tail and the ``A 1`` its row-sum terms read (NULL: none)."""

    _fields_ = ([("ncols", _I), ("ndst", _I), ("nzero", _I)]
                + [(name, ctypes.c_void_p)
                   for name in ("dst", "src", "zero", "stack")]
                + [("ngroups", _I)]
                + [(name, ctypes.c_void_p) for name in (
                    "groups", "gather", "scatter", "mask", "rhs", "state")]
                + [("n", _I), ("ndiag", _I), ("stride", _I)]
                + [(name, ctypes.c_void_p) for name in (
                    "data", "offsets", "rows", "b", "r", "dx", "x",
                    "weights", "s", "p", "rp", "z", "coef", "dots", "w",
                    "extents", "abft", "rowsum")])


def address(array):
    """Address of a writable C-contiguous array's first element (a
    third of the cost of ``array.ctypes.data``; raises on any other
    array).  The caller keeps ``array`` alive across the native call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


def pointer(array):
    """:func:`address`, strided writable views (the interior of a
    stack) included -- those at the price of ``array.ctypes.data``."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        if not array.flags.writeable:
            raise
        return array.ctypes.data


@functools.lru_cache(maxsize=256)
def int64s(*values):
    """``(address, array)`` of these values as a C int64 array -- how a
    geometry reaches ``native.c`` (one pointer: a ctypes call pays per
    argument).  Hold the pair across the call; equal values share one
    array."""
    array = np.array(values, dtype=np.int64)
    return array.ctypes.data, array


@functools.lru_cache(maxsize=64)
def row_geometry(shape, strides):
    """``(blocks, rows, run, block_stride, row_stride)`` of a float64
    array with this shape and these byte strides, in elements -- the
    row geometry of ``native.c``: trailing axes that follow each other
    in memory merge into the run, up to two strided axes remain outside
    it (the interior of a ``(p, H, W[, n])`` stack: blocks and rows).
    ``None`` for any other layout."""
    run, k = 1, len(shape)
    while k and (strides[k - 1] == run * 8 or shape[k - 1] == 1):
        k -= 1
        run *= shape[k]
    outer = [(n, step) for n, step in zip(shape[:k], strides[:k]) if n != 1]
    if len(outer) > 2 or not run or any(
            step <= 0 or step % 8 for _, step in outer):
        return None
    (blocks, block_step), (rows, row_step) = [(1, 0)] * (2 - len(outer)) + outer
    return blocks, rows, run, block_step // 8, row_step // 8


@functools.lru_cache(maxsize=16)
def pairwise_leaves(n):
    """numpy's pairwise sum of ``n`` terms as its leaves, in order: an
    int64 ``(leaves, 2)`` array of each leaf's end and the merges that
    follow it (left + right, innermost first) -- how ``chrongear_span``
    sums a dot whose terms become final row by row.  A leaf has at most
    128 terms; a longer run splits at ``n / 2`` rounded down to a
    multiple of 8."""
    out = []

    def walk(lo, count):
        if count <= 128:
            out.append([lo + count, 0])
            return
        half = count // 2
        half -= half % 8
        walk(lo, half)
        walk(lo + half, count - half)
        out[-1][1] += 1

    walk(0, n)
    return np.array(out, dtype=np.int64)


def chrongear_program(n, nx, ncols, sweep, leaves, dinv, vectors, scratch):
    """The int64 words of ``native.c``'s ``chrongear_program``: the
    geometry, the sweep's ``(ndiag, stride, symmetric, data, offsets)``,
    the leaves, then the addresses of ``dinv``, ``x`` / ``r`` / ``s`` /
    ``p`` / ``z`` and the window, stacks, coefficients and dots."""
    ndiag, stride, symmetric, data, offsets = sweep
    return np.array([n, nx, ncols, ndiag, stride, len(leaves), symmetric,
                     data, offsets, leaves.ctypes.data, dinv, *vectors,
                     *scratch], dtype=np.uint64).view(np.int64)


def is_symmetric(data, offsets):
    """Whether the DIA matrix ``(data, offsets)`` is symmetric bit for
    bit: every diagonal ``-o`` holds diagonal ``+o``'s values ``o``
    columns earlier (``A[i, i - o] == A[i - o, i]``, compared as bits,
    so ``-0.0`` is not ``0.0``)."""
    n = data.shape[1]
    index = {int(o): k for k, o in enumerate(offsets)}
    for o, k in index.items():
        if o < 0 and (-o not in index or -o >= n or not np.array_equal(
                data[k, :n + o].view(np.int64),
                data[index[-o], -o:].view(np.int64))):
            return False
    return True


class Native:
    """What :func:`load` found: ``status`` (``<path> loaded``, ``no
    compiler``, ``build failed: ...``, ``self-test failed: <entry
    points>``) and one attribute per entry point -- the ``ctypes``
    function, or ``None`` where it was not adopted."""

    def __init__(self, status, functions=None):
        self.status = status
        for name in _SIGNATURES:
            setattr(self, name, (functions or {}).get(name))

    @property
    def loaded(self):
        return any(getattr(self, name) for name in _SIGNATURES)


def _library_stem(compiler):
    """Cache path stem digesting the source, the flags, the compiler's
    version banner and the CPU's feature flags (``-march=native``)."""
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    try:
        cpu = next(line for line in Path("/proc/cpuinfo").read_text().split("\n")
                   if line.startswith(("flags", "Features")))
    except (OSError, StopIteration):
        cpu = " ".join(os.uname())
    digest = hashlib.sha256("\0".join(
        (_SOURCE.read_text(), " ".join(_FLAGS), version, cpu)).encode())
    home = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(home) / "repro-kernels" / f"native-{digest.hexdigest()[:32]}"


def _content_tag(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _cached(stem):
    """The library built for ``stem`` whose bytes match the digest in
    its own name.  A file that does not is removed, never loaded:
    ``dlopen`` of a truncated ELF kills the process."""
    for path in sorted(stem.parent.glob(f"{stem.name}-*.so")):
        if path.stem == f"{stem.name}-{_content_tag(path)}":
            return path
        path.unlink()
    return None


def _build(compiler, stem):
    """Compile to a private temp name, then ``os.replace`` onto
    ``<stem>-<digest of the bytes>.so``: concurrent builders each
    install a complete file (the same one)."""
    stem.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
    tmp = stem.with_name(
        f"{stem.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        subprocess.run([compiler, *_FLAGS, str(_SOURCE), "-o", str(tmp)],
                       capture_output=True, text=True, timeout=300, check=True)
        path = stem.with_name(f"{stem.name}-{_content_tag(tmp)}.so")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _once(build):
    """``build()`` made once per process, by the first caller, while
    any caller that comes meanwhile waits for it (``lru_cache`` alone lets
    callers that come together each build); ``__wrapped__`` builds
    afresh."""
    lock, made = threading.Lock(), []

    @functools.wraps(build)
    def once():
        with lock:
            if not made:
                made.append(build())
            return made[0]
    return once


@_once
def load():
    """The process-wide :class:`Native` (see module docstring)."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return Native("no compiler")
    try:
        stem = _library_stem(compiler)
        path = _cached(stem) or _build(compiler, stem)
        lib = ctypes.CDLL(str(path))
    except subprocess.CalledProcessError as err:
        reason = (err.stderr or "").strip().split("\n")[0]
        return Native(f"build failed: {reason or f'exit {err.returncode}'}")
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        return Native(f"build failed: {err}")
    functions = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = functions[name] = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    for name, check in _SELF_TESTS.items():
        if not check(functions[name], functions):
            functions[name] = None
    failed = sorted(name for name, fn in functions.items() if fn is None)
    return Native(f"self-test failed: {', '.join(failed)}" if failed
                  else f"{path} loaded", functions)


def _check(name, fn, functions):
    """Entry point ``name`` as ``fn`` against the same public calls
    without it (:mod:`repro.kernels.selftest`)."""
    # Imported at first load: the cases build contexts, whose modules
    # import this one.
    from repro.kernels.selftest import check

    return check(name, fn, functions)


#: Each entry point's load-time check, in the order they run: a check
#: takes the entry points its calls need from ``functions`` -- adopted,
#: or not checked yet -- and skips the calls that need a rejected one
#: (``evp_edges`` before ``evp_march``: on its tiles, one cell thick,
#: the march only sets the ring).
_SELF_TESTS = {name: functools.partial(_check, name) for name in (
    "dia_sweep", "update_chain", "pairwise_dot", "evp_edges", "evp_march",
    "evp_gather", "evp_scatter", "chebyshev_span", "chrongear_span",
    "evp_step")}



