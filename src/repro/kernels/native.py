"""Build, cache, load and self-test ``native.c``.

:func:`load` compiles the C file next to this module with the system
compiler on first use, keeps the library under the *user's* cache
directory (``${XDG_CACHE_HOME:-~/.cache}/repro-kernels``: built once per
machine, not once per artifact cache or temp dir) under a name that
digests everything the machine code depends on and the library's own
bytes (a damaged file is rebuilt, not loaded), and adopts each entry
point only if it reproduces its numpy reference bit for bit on drawn
inputs -- that is what catches a compiler that contracts ``a * b + c``
or a numpy that changes its summation order, where a version check
would not.  Nothing here raises and nothing warns: no compiler, a
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
import struct
import subprocess
from pathlib import Path

import numpy as np
from scipy.sparse import dia_array

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
#: when a head follows and none is kept yet), the kept ``x`` update first.
EVP_TAIL, EVP_HEAD, EVP_HALO, EVP_CHAIN, EVP_HELD = 1, 2, 4, 8, 16
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
    left NULL by a P-CSI program, and last where a P-CSI tail keeps
    ``A x`` (NULL: nowhere)."""

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
                    "extents", "ax")])


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
    tmp = stem.with_name(f"{stem.name}.{os.getpid()}.tmp")
    try:
        subprocess.run([compiler, *_FLAGS, str(_SOURCE), "-o", str(tmp)],
                       capture_output=True, text=True, timeout=300, check=True)
        path = stem.with_name(f"{stem.name}-{_content_tag(tmp)}.so")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


@functools.lru_cache(maxsize=None)
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
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
        if _SELF_TESTS[name](fn, np.random.default_rng(20151130)):
            functions[name] = fn
    failed = sorted(set(_SIGNATURES) - set(functions))
    return Native(f"self-test failed: {', '.join(failed)}" if failed
                  else f"{path} loaded", functions)


# -- self-tests: each entry point against its numpy/scipy reference -----
def _test_dia_sweep(fn, rng):
    """Whole vectors (rows at both ends lose diagonals) at widths 1 / 2
    / 8 / 11 against scipy column by column, then the rows of a stack
    interior written in place: nothing between them is touched."""
    offsets = np.array([0, 12, -12, 1, -1, 13, 11, -11, -13], dtype=np.int64)
    for n, width in ((7, 1), (150, 1), (1031, 1), (150, 2), (1031, 8),
                     (400, 11)):
        data, x = rng.standard_normal((9, n)), rng.standard_normal((n, width))
        sweep = dia_array((data, offsets), shape=(n, n))
        ref = np.stack([sweep @ np.ascontiguousarray(x[:, c])
                        for c in range(width)], axis=1)
        y = np.empty((n, width))
        fn(n, 9, address(data), n, address(offsets),
           int64s(width, 1, 1, n, 0, 0, 0, 0, 0)[0], address(x), address(y))
        if not np.array_equal(y, ref):
            return False
        if n < 400:
            continue
        blocks, rows, cells, first, block, row = 2, 3, 9, 40, 150, 13
        y = np.full((n, width), 7.0)
        fn(n, 9, address(data), n, address(offsets),
           int64s(width, blocks, rows, cells, first, block, row,
                  block * width, row * width)[0],
           address(x), address(y) + first * width * 8)
        swept = np.zeros(n, dtype=bool)
        for b in range(blocks):
            for r in range(rows):
                at = first + b * block + r * row
                swept[at:at + cells] = True
        if not (np.array_equal(y[swept], ref[swept])
                and np.all(y[~swept] == 7.0)):
            return False
    return True


def _test_update_chain(fn, rng):
    """ChronGear's chain (later steps read what earlier ones wrote) on
    whole vectors with scalar coefficients, then on the interiors of
    ``(p, H, W, n)`` stacks with one coefficient per column: halo cells
    stay as they were."""
    n = 2500
    s, p, x, r, z, q = rng.standard_normal((6, n))
    got = [v.copy() for v in (s, p, x, r)]
    steps = [(1, 0.0, 0.3, 0, 0, address(z), address(got[0])),
             (2, 0.7, -1.1, 0, 0, address(q), address(got[1])),
             (0, 0.9, 0.0, 0, 0, address(got[0]), address(got[2])),
             (0, -0.9, 0.0, 0, 0, address(got[1]), address(got[3]))]
    fn(struct.pack(CHAIN_FORMAT + STEP_FORMAT * 4, 1, 1, n, 0, 0, 1, 4,
                   *(v for step in steps for v in step)))
    s, p = z + 0.3 * s, -1.1 * p + 0.7 * q
    if not all(np.array_equal(a, b) for a, b in
               zip(got, (s, p, x + 0.9 * s, r + -0.9 * p))):
        return False

    shape, h = (3, 7, 9, 5), 2
    inner = (slice(None), slice(h, -h), slice(h, -h))
    alpha, beta = rng.standard_normal((2, shape[3]))
    minus = -alpha
    ref = dict(zip("spxrzq", rng.standard_normal((6,) + shape)))
    got = {name: v.copy() for name, v in ref.items()}
    first = ((h * shape[2] + h) * shape[3]) * 8
    at = {name: address(v) + first for name, v in got.items()}
    steps = [(1, 0.0, 0.0, 0, address(beta), at["z"], at["s"]),
             (2, 0.0, 0.0, address(alpha), address(beta), at["q"], at["p"]),
             (0, 0.0, 0.0, address(alpha), 0, at["s"], at["x"]),
             (0, 0.0, 0.0, address(minus), 0, at["p"], at["r"])]
    fn(struct.pack(CHAIN_FORMAT + STEP_FORMAT * 4, shape[0], shape[1] - 2 * h,
                   (shape[2] - 2 * h) * shape[3],
                   shape[1] * shape[2] * shape[3], shape[2] * shape[3],
                   shape[3], 4, *(v for step in steps for v in step)))
    s, p, x, r, z, q = (ref[name][inner] for name in "spxrzq")
    s[...] = beta * s + z
    p[...] = beta * p + alpha * q
    x[...] = x + alpha * s
    r[...] = r + minus * p
    return all(np.array_equal(ref[name], got[name]) for name in ref)


def _test_pairwise_dot(fn, rng):
    """One window of every awkward length, then stacks of windows --
    whole interiors and ragged extents -- at widths 1 / 3 / 8 against
    ``np.sum`` over the contiguous planar copy of the products."""
    for n in (1, 7, 8, 9, 127, 128, 129, 300, 1000, 17280, 30720):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        b, w = rng.standard_normal(n), rng.integers(0, 2, n).astype(float)
        if fn(int64s(1, 1, n, 1, 0, 0)[0], address(a), address(b), address(w),
              0, 0) != float(np.sum(a * b * w)):
            return False
    p, ny, nx, h = 5, 18, 21, 2
    mask = rng.integers(0, 2, (p, ny, nx)).astype(float)
    ragged = np.array([(ny, nx), (ny - 1, nx), (ny, nx - 1), (3, 2),
                       (ny - 1, nx - 1)], dtype=np.int64)
    for width in (1, 3, 8):
        shape = (p, ny + 2 * h, nx + 2 * h, width)
        a, b = rng.standard_normal((2,) + shape)
        a *= 10.0 ** rng.integers(-5, 5, shape)
        inner = (slice(None), slice(h, -h), slice(h, -h))
        first = (h * shape[2] + h) * width * 8
        for extents in (None, ragged):
            out = np.empty((width, p))
            fn(int64s(p, ny, nx, width, shape[1] * shape[2] * width,
                      shape[2] * width)[0],
               address(a) + first, address(b) + first, address(mask),
               0 if extents is None else address(extents), address(out))
            for k in range(p):
                wy, wx = (ny, nx) if extents is None else extents[k]
                planar = np.ascontiguousarray(
                    ((a[inner][k, :wy, :wx] * b[inner][k, :wy, :wx])
                     * mask[k, :wy, :wx, None]).transpose(2, 0, 1))
                if not np.array_equal(out[:, k], np.sum(planar, axis=(1, 2))):
                    return False
    return True


def _test_evp_march(fn, rng):
    """Steps of 4, 5 and 8 terms (every grouping of the term loop), the
    later ones reading the earlier targets and the first the ring, at
    widths 1 / 3 / 8 / 11 (longer than a chunk of equations at 1 and
    8): the ring set to ``-ring`` or, without one, to 0.0."""
    b, k = 5, 3
    for width, rows, with_ring in ((1, 220, True), (3, 30, False),
                                   (8, 30, True), (11, 30, False)):
        m = rows * b
        lines = [12 * rows + 1, 12 * rows + 7, 13 * rows - 1]
        state = rng.standard_normal((13 * m, width))
        coef, inv = rng.standard_normal(8 * m), rng.standard_normal(3 * m)
        rhs = rng.standard_normal((3 * m, width))
        ring = rng.standard_normal((width, b, k))
        ref, prog = state.copy(), [b, 3, k, *lines]
        for e, line in enumerate(lines):
            ref[line * b:(line + 1) * b] = (-ring[:, :, e].T if with_ring
                                            else 0.0)
        for step, nterms in enumerate((4, 5, 8)):
            row, target = step * m, (9 + step) * m
            cur = rhs[row:row + m]
            prog += [m, row, target, nterms]
            for t in range(nterms):
                src = (12 if t == 0 else (8 + step - t) % (9 + step)) * m
                cur = cur - coef[t * m:(t + 1) * m, None] * ref[src:src + m]
                prog += [t * m, src]
            ref[target:target + m] = cur * inv[row:row + m, None]
        prog = np.array(prog, dtype=np.int64)
        fn(address(prog), width, address(coef), address(inv), address(rhs),
           address(state), address(ring) if with_ring else 0)
        if not np.array_equal(state, ref):
            return False
    return True


def _test_evp_edges(fn, rng):
    """Nine terms at widths 1 (more tiles than a chunk) / 3 / 8 / 11,
    the residuals written as ``(width, B, k)``."""
    k, nterms = 3, 9
    for width, b in ((1, 1100), (3, 7), (8, 5), (11, 6)):
        coef = rng.standard_normal((nterms, k, b))
        state = rng.standard_normal((6, b, width))
        rhs = rng.standard_normal((k, b, width))
        rows = rng.integers(0, 6, (nterms, k)).astype(np.int64)
        offsets = np.arange(nterms, dtype=np.int64) * k * b
        ref, f = -rhs, np.empty((width, b, k))
        for t in range(nterms):
            ref = ref + coef[t][..., None] * state[rows[t]]
        fn(int64s(k, b, width, nterms)[0], address(offsets), address(rows),
           address(coef), address(rhs), address(state), address(f))
        if not np.array_equal(f, ref.transpose(2, 1, 0)):
            return False
    return True


def _boundary_case(rng, width):
    """Two shape groups of tiles over a layout of cells ``cs`` doubles
    apart (``width`` used, one gap), every tile cell distinct, and the
    cells past them left for zero runs."""
    cs, groups, base = width + 1, [], 0
    for b, rows in ((3, 50), (130, 2)):
        cells = base + np.arange(b)[:, None] * rows + rng.permutation(rows)
        groups.append((b, rows, cells))
        base += b * rows
    return cs, groups, base


def _test_evp_gather(fn, rng):
    """Packed rows of two groups from cells with a gap between them, at
    widths 1 / 2 / 8 / 11."""
    for width in (1, 2, 8, 11):
        cs, groups, total = _boundary_case(rng, width)
        r = rng.standard_normal(total * cs)
        prog, ref = [len(groups)], []
        for b, rows, cells in groups:
            prog += [b, rows]
        for b, rows, cells in groups:
            prog += list(cells[:, 0] * cs) + list((cells[0] - cells[0, 0]) * cs)
            ref.append(r.reshape(total, cs)[cells.T.ravel(), :width])
        y = np.empty((sum(b * rows for b, rows, _ in groups), width))
        prog = np.array(prog, dtype=np.int64)
        fn(address(prog), width, address(r), address(y))
        if not np.array_equal(y, np.concatenate(ref)):
            return False
    return True


def _test_evp_scatter(fn, rng):
    """States of two groups, masked with 0.0 / 1.0 (NaN and Inf among
    the states), into cells with a gap between them, plus two zero
    runs; nothing else is written.  Widths 1 / 2 / 8 / 11."""
    for width in (1, 2, 8, 11):
        cs, groups, total = _boundary_case(rng, width)
        zeros = [(total, 3), (total + 5, 2)]
        cells = total + 8
        mask = rng.integers(0, 2, cells).astype(float)
        prog, first = [len(groups), len(zeros), cs], 0
        for b, rows, _ in groups:
            prog += [b, rows, first]
            first += 2 * b * rows
        x = rng.standard_normal((first, width))
        x[rng.integers(0, first, 20)] = np.inf
        x[rng.integers(0, first, 20)] = np.nan
        out = np.full(cells * cs, 7.0)
        ref = out.copy().reshape(cells, cs)
        first = 0
        for b, rows, tile_cells in groups:
            slots = rng.permutation(2 * rows)[:rows]
            prog += (list(tile_cells[:, 0] * cs)
                     + list((tile_cells[0] - tile_cells[0, 0]) * cs)
                     + list(tile_cells[:, 0])
                     + list(tile_cells[0] - tile_cells[0, 0]) + list(slots))
            state = x[first + slots[:, None] * b + np.arange(b)]
            with np.errstate(invalid="ignore"):
                ref[tile_cells.T, :width] = state * mask[tile_cells.T, None]
            first += 2 * b * rows
        for start, count in zeros:
            prog += [start * cs, count]
            ref[start:start + count, :width] = 0.0
        prog = np.array(prog, dtype=np.int64)
        fn(address(prog), width, address(x), address(mask), address(out))
        if not np.array_equal(out, ref.ravel(), equal_nan=True):
            return False
    return True


def _test_chebyshev_span(fn, rng):
    """Spans of 1, 3 and 6 iterations at widths 1 / 2 / 3, on grids 3
    to 11 cells wide with every coupling non-zero (the wrapping ones
    included), against the iterations one at a time: the diagonal
    multiply, ``combine``, ``axpy``, scipy's sweep and a subtraction."""
    for ny, nx, width, steps in ((9, 3, 1, 6), (13, 11, 2, 6), (6, 11, 3, 1),
                                 (20, 7, 1, 3), (4, 5, 2, 3)):
        n = ny * nx
        offsets = np.array([0, nx, -nx, 1, -1, nx + 1, nx - 1, 1 - nx,
                            -1 - nx], dtype=np.int64)
        data, dinv = rng.standard_normal((9, n)), rng.standard_normal(n)
        b, r, dx, x = rng.standard_normal((4, n, width))
        weights = rng.standard_normal((steps, 2))
        sweep = dia_array((data, offsets), shape=(n, n))
        ref_r, ref_dx, ref_x = r, dx, x
        for w, c in weights:
            ref_dx = c * ref_dx + w * (ref_r * dinv[:, None])
            ref_x = ref_x + ref_dx
            ref_r = b - np.stack([sweep @ np.ascontiguousarray(ref_x[:, k])
                                  for k in range(width)], axis=1)
        r, dx, x = r.copy(), dx.copy(), x.copy()
        fn(steps, address(weights), int64s(n, nx, width, 9, n)[0],
           address(data), address(offsets), address(dinv), address(b),
           address(r), address(dx), address(x))
        if not (np.array_equal(r, ref_r) and np.array_equal(dx, ref_dx)
                and np.array_equal(x, ref_x)):
            return False
    return True


def _test_chrongear_span(fn, rng):
    """Spans of 1 to 4 iterations at widths 1 / 2 / 3 / 8 / 11, on grids
    3 to 11 cells wide (one sum of a single leaf, the rest trees) with
    every coupling non-zero (the wrapping ones included) -- some of them
    symmetric, read from half the planes at width 1 -- land where
    ``dinv`` is 0.0 and NaN / +-Inf planted in the first and last grid
    column, against the iterations one at a time: the diagonal
    multiply, scipy's sweep, ``np.sum`` of the masked products per
    column and the chain's four steps with drawn coefficients, an
    iteration that updates nothing among them, ``x`` updates kept and
    applied as ``_ChronGearSpan`` keeps them.  NaN and Inf go into
    column 0 only, so the others stay finite."""
    for ny, nx, width, steps, symmetric in (
            (9, 3, 1, 4, True), (13, 11, 2, 3, False), (6, 11, 3, 2, True),
            (40, 7, 8, 2, False), (4, 5, 11, 1, False), (30, 11, 1, 3, False),
            (25, 9, 1, 4, True)):
        n = ny * nx
        offsets = np.array([0, nx, -nx, 1, -1, nx + 1, nx - 1, 1 - nx,
                            -1 - nx], dtype=np.int64)
        data = rng.standard_normal((9, n))
        for up, down in ((1, 2), (3, 4), (6, 7), (5, 8)) if symmetric else ():
            # diagonal -o holds diagonal +o's values o columns earlier
            o = offsets[up]
            data[down, :n - o] = data[up, o:]
        dinv = rng.standard_normal(n) * (rng.random(n) < 0.8)
        x, r, s, p = rng.standard_normal((4, n, width))
        if nx == 3 or width > 1:   # column 0 only: the others stay finite
            for j, value in zip(rng.integers(0, ny, 3),
                                (np.nan, np.inf, -np.inf)):
                r[j * nx + rng.choice((0, nx - 1)), 0] = value
        coef = rng.standard_normal((steps, 2, width))
        sweep = dia_array((data, offsets), shape=(n, n))
        ref = [v.copy() for v in (x, r, s, p)]
        got = [v.copy() for v in (x, r, s, p)]
        z = np.empty((n, width))
        window = np.empty(2 * SPAN_ROWS * nx * width)
        stacks = np.empty(2 * width * MAX_DEPTH)
        coefs, dots = np.empty(3 * width), np.empty(2 * width)
        leaves = pairwise_leaves(n)
        prog = chrongear_program(
            n, nx, width,
            (9, n, int(symmetric), address(data), address(offsets)), leaves,
            address(dinv), [address(v) for v in got] + [address(z)],
            [address(v) for v in (window, stacks, coefs, dots)])
        held = False

        def call(step, head):
            nonlocal held
            mode = (HEAD if head else 0) | (HELD if held else 0)
            if step is not None:
                coefs[:2 * width] = step.ravel()
                mode |= CHAIN | (HOLD if head else 0)
            fn(prog.ctypes.data, mode)
            held = bool(mode & HOLD)

        with np.errstate(invalid="ignore", over="ignore"):
            for t in range(steps + 1):
                rx, rr, rs, rq = ref
                if t:
                    step = None if t == 2 else coef[t - 1]
                    if step is not None:
                        alpha, beta = step
                        rp = rr * dinv[:, None]
                        rs[...] = beta * rs + rp
                        rq[...] = beta * rq + rz
                        rx[...] = rx + alpha * rs
                        rr[...] = rr + -alpha * rq
                    if step is not None or t < steps:
                        call(step, t < steps)
                else:
                    call(None, True)
                if t == steps:
                    break
                rp = rr * dinv[:, None]
                rz = np.stack([sweep @ np.ascontiguousarray(rp[:, c])
                               for c in range(width)], axis=1)
                weight = (dinv != 0.0).astype(float)[:, None]
                want = [np.sum(np.ascontiguousarray((a * rp * weight)[:, c]))
                        for a in (rr, rz) for c in range(width)]
                if not (np.array_equal(dots, want, equal_nan=True)
                        and np.array_equal(z, rz, equal_nan=True)):
                    return False
            if held:
                fn(prog.ctypes.data, HELD)
        if not all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(got, ref)):
            return False
    return True


def _step_layout(rng, width, stacked, names, poisoned):
    """A layout for ``_test_evp_step``: a ragged ``(3, 9, 11)`` stack
    with halo 2 -- interior windows 5x7, 4x7 and 5x6; half the cells
    outside them copied from drawn owned cells, the rest zeroed, as
    beside an eliminated block and on the pad -- or a ``(9, 11)`` grid;
    tiles of two shapes, the cells between them uncovered; drawn
    vectors ``names`` with NaN / +-Inf in edge cells of ``poisoned``
    (column 0)."""
    h = 2 if stacked else 0
    p, ny, nx = (3, 5, 7) if stacked else (1, 9, 11)
    shape = (p, ny + 2 * h, nx + 2 * h)
    tiles = {(3, 4): [(0, 0, 0), (1, 1, 3)] if stacked
             else [(0, 0, 0), (0, 4, 6)],
             (2, 3): [(0, 3, 0), (2, 0, 3), (2, 3, 0)] if stacked
             else [(0, 0, 5), (0, 7, 0), (0, 7, 8)]}
    vectors = {name: rng.standard_normal(shape + (width,)) for name in names}
    for name in poisoned:
        for value, i in zip((np.nan, np.inf, -np.inf), (0, nx - 1, 0)):
            vectors[name][rng.integers(p), h + rng.integers(ny), h + i, 0] \
                = value
    halo = [np.zeros(0, dtype=np.int64)] * 3
    windows = None
    if stacked:
        windows = np.array([(5, 7), (4, 7), (5, 6)], dtype=np.int64)
        owned = np.zeros(shape, dtype=bool)
        for blk, (by, bx) in enumerate(windows):
            owned[blk, h:h + by, h:h + bx] = True
        cells = np.arange(owned.size, dtype=np.int64).reshape(shape)
        others = rng.permutation(cells[~owned])
        half = others.size // 2
        halo = [others[:half], rng.choice(cells[owned], half), others[half:]]
    return h, shape, tiles, vectors, halo, windows


def _step_group(rng, origins, tile, width):
    """One shape group of tiles at ``origins``: its packed rows' cells
    (drawn order), an ``evp_march`` program of three steps (4, 5 and 8
    terms) over drawn state rows, ``evp_edges`` tables of three edge
    rows and six terms, and the buffers they name."""
    b, rows = len(origins), tile[0] * tile[1]
    k, marched = 3, rows - 3
    lengths = [marched // 3, marched // 3, marched - 2 * (marched // 3)]
    size = rows + 2                       # state rows; 2 never written
    prog, first = [b, 3, k, *range(k)], 0
    for length, nterms in zip(lengths, (4, 5, 8)):
        target = k + first
        prog += [length * b, first * b, target * b, nterms]
        for _ in range(nterms):
            src = rng.integers(0, size - length)
            while target - length < src < target + length:
                src = rng.integers(0, size - length)
            prog += [rng.integers(0, 40 - length) * b, src * b]
        first += length
    order = rng.permutation(rows)
    return dict(
        b=b, k=k, rows=rows, marched=marched, size=size,
        origins=np.array(origins, dtype=np.int64),
        cells=np.stack([order // tile[1], order % tile[1]], axis=1),
        coef=rng.standard_normal(40 * b),
        inv_ne=rng.standard_normal(marched * b),
        march=np.array(prog, dtype=np.int64),
        edges=np.array([k, b, width, 6], dtype=np.int64),
        coef_off=rng.integers(0, 40 - k, 6).astype(np.int64) * b,
        src_rows=rng.integers(0, size, 6 * k).astype(np.int64),
        slots=rng.permutation(size)[:rows].astype(np.int64),
        f=np.empty((width, b, k)), ring=np.empty((width, b, 1, k)),
        rt=rng.standard_normal((b, k, k)))


def _march_reference(prog, coef, inv_ne, rhs, state, ring):
    """``evp_march`` in numpy on ``(equations, width)`` rows."""
    b, nsteps, k = prog[:3]
    at = 3 + k
    for e, line in enumerate(prog[3:at]):
        state[line * b:(line + 1) * b] = (0.0 if ring is None
                                          else -ring[:, :, 0, e].T)
    for _ in range(nsteps):
        count, row, target, nterms = prog[at:at + 4]
        terms, at = prog[at + 4:at + 4 + 2 * nterms], at + 4 + 2 * nterms
        cur = rhs[row:row + count]
        for c, src in zip(terms[0::2], terms[1::2]):
            cur = cur - coef[c:c + count, None] * state[src:src + count]
        state[target:target + count] = cur * inv_ne[row:row + count, None]


def _edges_reference(group, rhs, state):
    """``evp_edges`` in numpy, as ``(width, B, k)``."""
    b, k = group["b"], group["k"]
    f = np.empty_like(group["f"])
    for e in range(k):
        acc = -rhs[e * b:(e + 1) * b]
        for t, c in enumerate(group["coef_off"]):
            src = group["src_rows"][t * k + e] * b
            acc = acc + (group["coef"][c + e * b:c + (e + 1) * b, None]
                         * state[src:src + b])
        f[:, :, e] = acc.T
    return f


def _test_evp_step(fn, rng):
    """On a ragged stack with halo 2 at widths 1 / 2 / 3 / 8 / 11 and on
    a grid, tiles of two shapes, NaN / +-Inf in edge cells, against the
    pieces in numpy one by one (the ring matmul between the calls is
    shared; vectors are compared whole, halo and pad cells included):

    * a span of two P-CSI iterations -- a head, a tail with a head and
      a tail, the last keeping ``A x`` -- against the gather, the march,
      the edges, the masked scatter, ``combine``, ``axpy``, the halo
      copy, scipy's sweep (the kept ``A x``) and ``b - Ax``;
    * spans of 1 to 4 ChronGear iterations -- each a chain (the first
      none, one that updates nothing among them) with the next head,
      then its tail -- with drawn coefficients, ``x`` updates kept and
      applied as ``_EvpSpan`` keeps them (every other chain a head
      follows), against the same boundary pieces, the halo copy and
      sweep of ``r'``, ``np.sum`` of every block window's products per
      column added in block order, and the chain's four steps."""
    with np.errstate(invalid="ignore", over="ignore"):
        return all(_evp_step_case(fn, rng, width, stacked)
                   for width, stacked in ((1, True), (2, True), (3, True),
                                          (8, True), (11, True), (1, False))
                   ) and all(
            _chrongear_step_case(fn, rng, width, stacked, steps)
            for width, stacked, steps in (
                (1, True, 1), (2, True, 3), (3, True, 2), (8, True, 4),
                (11, True, 2), (1, False, 4), (3, False, 2)))


class _StepCase:
    """The operands of one ``_test_evp_step`` case: the layout, its
    shape groups and boundary programs, the sweep, drawn vectors
    ``names`` (``ref`` and ``got`` copies) and the pieces in numpy."""

    def __init__(self, rng, width, stacked, names, poisoned):
        h, shape, tiles, vectors, self.halo, self.windows = _step_layout(
            rng, width, stacked, names, poisoned)
        p, height, row = shape
        ny, nx = height - 2 * h, row - 2 * h
        self.width = width
        cell = np.array([height * row, row, 1]) * width    # in elements
        self.first = (h * row + h) * width                 # the first cell
        self.inner = (slice(None), slice(h, h + ny), slice(h, h + nx))
        self.mask = (rng.random((p, ny, nx)) < 0.8).astype(float)
        self.groups = groups = [_step_group(rng, origins, tile, width)
                                for tile, origins in tiles.items()]
        gather, scatter = [len(groups)], [len(groups), 0, width]
        covered = np.zeros((p, ny, nx), dtype=bool)
        gather_tables, scatter_tables, y_rows, x_rows = [], [], 0, 0
        for g in groups:
            offsets = g["cells"] @ cell[1:]
            gather += [g["b"], g["rows"]]
            gather_tables += [g["origins"] @ cell, offsets]
            scatter += [g["b"], g["rows"], x_rows]
            scatter_tables += [g["origins"] @ cell, offsets,
                               g["origins"] @ np.array([ny * nx, nx, 1]),
                               g["cells"] @ np.array([nx, 1]), g["slots"]]
            g["y"], g["x"] = y_rows, x_rows
            y_rows += g["rows"] * g["b"]
            x_rows += g["size"] * g["b"]
            for blk, oj, oi in g["origins"]:
                covered[blk, oj + g["cells"][:, 0],
                        oi + g["cells"][:, 1]] = True
        runs = [(c @ cell, 1) for c in np.argwhere(~covered)]
        scatter[1] = len(runs)
        self.gather = np.concatenate(
            [gather] + gather_tables).astype(np.int64)
        self.scatter = np.concatenate(
            [scatter] + scatter_tables + [np.ravel(runs)]).astype(np.int64)
        self.y = np.empty((y_rows, width))
        self.state = rng.standard_normal((x_rows, width))
        n = p * height * row
        self.offsets = np.array([0, row, -row, 1, -1, row + 1, row - 1,
                                 1 - row, -1 - row], dtype=np.int64)
        self.data = rng.standard_normal((9, n))
        self.sweep = dia_array((self.data, self.offsets), shape=(n, n))
        self.geometry = np.array([width, p, ny, nx, h * row + h,
                                  height * row, row, cell[0], cell[1]],
                                 dtype=np.int64)
        self.ref = {name: v.copy() for name, v in vectors.items()}
        self.got = {name: v.copy() for name, v in vectors.items()}
        self.ref_y, self.ref_state = self.y.copy(), self.state.copy()
        self.structs = (EvpGroup * len(groups))()
        for st, g in zip(self.structs, groups):
            st.march, st.coef, st.inv_ne = (self.at(g["march"]),
                                            self.at(g["coef"]),
                                            self.at(g["inv_ne"]))
            st.rhs = self.at(self.y, g["y"] * width)
            st.state = self.at(self.state, g["x"] * width)
            st.ring, st.edges = self.at(g["ring"]), self.at(g["edges"])
            st.coef_off = self.at(g["coef_off"])
            st.src_rows = self.at(g["src_rows"])
            st.edge_rhs = st.rhs + g["marched"] * g["b"] * width * 8
            st.f = self.at(g["f"])

    @staticmethod
    def at(array, elements=0):
        return address(array) + elements * 8 if array.size else 0

    def program(self, stack, vectors, *extension):
        """The ``EvpProgram``: the sweep reads ``stack``; ``vectors`` are
        ``b``, ``r``, ``dx``, ``x`` and the weights slot."""
        return EvpProgram(
            self.width, len(self.halo[0]), len(self.halo[2]),
            *(self.at(t) for t in self.halo), stack, len(self.groups),
            ctypes.addressof(self.structs), self.at(self.gather),
            self.at(self.scatter), self.at(self.mask), self.at(self.y),
            self.at(self.state), self.data.shape[1], 9, self.data.shape[1],
            self.at(self.data), self.at(self.offsets),
            self.at(self.geometry), *vectors, *extension)

    def cell(self, name):
        """The first cell of ``got[name]``."""
        return self.at(self.got[name], self.first)

    def tail(self):
        """Every group's corrected march and the masked scatter: ``r'``
        over the interior."""
        rp = np.zeros(self.mask.shape + (self.width,))
        for g in self.groups:
            rows = self.ref_state[g["x"]:g["x"] + g["size"] * g["b"]]
            _march_reference(g["march"], g["coef"], g["inv_ne"],
                             self.ref_y[g["y"]:g["y"] + g["rows"] * g["b"]],
                             rows, g["ring"])
            out = rows[g["slots"][:, None] * g["b"] + np.arange(g["b"])]
            for pos, (blk, oj, oi) in enumerate(g["origins"]):
                j, i = oj + g["cells"][:, 0], oi + g["cells"][:, 1]
                rp[blk, j, i] = out[:, pos] * self.mask[blk, j, i, None]
        return rp

    def swept(self, name):
        """The halo copy of ``ref[name]``, then its sweep (whole)."""
        flat = self.ref[name].reshape(-1, self.width)
        flat[self.halo[0]] = flat[self.halo[1]]
        flat[self.halo[2]] = 0.0
        return np.stack([self.sweep @ np.ascontiguousarray(flat[:, c])
                         for c in range(self.width)],
                        axis=1).reshape(self.ref[name].shape)

    def head(self):
        """The gather of ``ref["r"]``, the march from a zero ring and the
        edges, as each group's wanted ``f``."""
        for g in self.groups:
            rhs = self.ref_y[g["y"]:g["y"] + g["rows"] * g["b"]]
            for pos, (blk, oj, oi) in enumerate(g["origins"]):
                rhs[pos::g["b"]] = self.ref["r"][self.inner][
                    blk, oj + g["cells"][:, 0], oi + g["cells"][:, 1]]
            rows = self.ref_state[g["x"]:g["x"] + g["size"] * g["b"]]
            _march_reference(g["march"], g["coef"], g["inv_ne"], rhs, rows,
                             None)
            g["want"] = _edges_reference(g, rhs[g["marched"] * g["b"]:],
                                         rows)

    def ring(self):
        """Whether every group's ``f`` is as wanted; then its ring
        product, as the caller forms it."""
        for g in self.groups:
            if not np.array_equal(g["f"], g["want"], equal_nan=True):
                return False
            np.matmul(g["f"][:, :, None, :], g["rt"], out=g["ring"])
        return True

    def matches(self):
        return all(np.array_equal(self.got[name], self.ref[name],
                                  equal_nan=True) for name in self.ref)


def _evp_step_case(fn, rng, width, stacked):
    """One P-CSI case of ``_test_evp_step``: ``True`` when every call
    matched."""
    case = _StepCase(rng, width, stacked, ("b", "r", "dx", "x", "ax"),
                     ("r", "dx", "x"))
    ref, inner = case.ref, case.inner
    weights = np.empty(2)
    prog = case.program(case.cell("x") - case.first * 8,
                        [case.cell(name) for name in ("b", "r", "dx", "x")]
                        + [case.at(weights)])
    for step in (None, (0.7, -0.4), (1.3, 0.2)):
        tail, head = step is not None, step != (1.3, 0.2)
        if tail:
            rp = case.tail()
            weights[:] = step
            dx, x = ref["dx"][inner], ref["x"][inner]
            dx[...] = step[1] * dx + step[0] * rp
            x[...] = x + 1.0 * dx
            ax = case.swept("x")[inner]
            ref["r"][inner] = ref["b"][inner] - ax
            # the last tail keeps A x; the first leaves ``ax`` alone
            prog.ax = None if head else case.cell("ax")
            if not head:
                ref["ax"][inner] = ax
        if head:
            case.head()
        fn(ctypes.addressof(prog),
           (EVP_TAIL if tail else 0) | (EVP_HEAD if head else 0))
        if head and not case.ring():
            return False
    return case.matches()


def _chrongear_step_case(fn, rng, width, stacked, steps):
    """One ChronGear case of ``_test_evp_step``: ``True`` when every
    call matched."""
    case = _StepCase(rng, width, stacked, ("x", "r", "s", "p", "rp", "z"),
                     ("r", "x", "s", "p"))
    ref, inner = case.ref, case.inner
    coef, dots = np.empty(3 * width), np.empty(2 * width)
    prog = case.program(
        case.cell("rp") - case.first * 8,
        (0, case.cell("r"), 0, case.cell("x"), 0),
        *(case.cell(name) for name in ("s", "p", "rp", "z")),
        case.at(coef), case.at(dots), case.at(case.mask),
        0 if case.windows is None else case.at(case.windows))
    drawn = rng.standard_normal((steps, 2, width))
    windows = (case.windows if case.windows is not None
               else [case.mask.shape[1:]])
    held = False

    def call(step, head):
        """A chain (or none) with the next head, then its tail."""
        nonlocal held
        mode = (EVP_HEAD if head else 0) | (EVP_HELD if held else 0)
        if step is not None:
            coef[:2 * width] = step.ravel()
            mode |= EVP_CHAIN
        fn(ctypes.addressof(prog), mode)
        held = bool(mode & EVP_CHAIN) and head and not held
        if head:
            if not case.ring():
                return False
            fn(ctypes.addressof(prog), EVP_TAIL)
        return True

    for t in range(steps + 1):
        step = None if t in (0, max(2, steps - 1)) else drawn[t - 1]
        if step is not None:
            alpha, beta = step
            rx, rr, rs, rq = (ref[name][inner] for name in "xrsp")
            rs[...] = beta * rs + ref["rp"][inner]
            rq[...] = beta * rq + ref["z"][inner]
            rx[...] = rx + alpha * rs
            rr[...] = rr + -alpha * rq
        if t < steps:
            case.head()
        if (step is not None or t < steps) and not call(step, t < steps):
            return False
        if t == steps:
            break
        ref["rp"][inner] = case.tail()
        ref["z"][inner] = case.swept("rp")[inner]
        want = []
        for a in (ref["r"], ref["z"]):
            sums = [0.0] * width
            for blk, (wy, wx) in enumerate(windows):
                products = ((a[inner][blk, :wy, :wx] * ref["rp"][inner][
                    blk, :wy, :wx]) * case.mask[blk, :wy, :wx, None])
                for c in range(width):
                    sums[c] += float(np.sum(np.ascontiguousarray(
                        products[..., c])))
            want += sums
        if not np.array_equal(dots, want, equal_nan=True):
            return False
    if held:
        fn(ctypes.addressof(prog), EVP_HELD)
    return case.matches()


_SELF_TESTS = {"dia_sweep": _test_dia_sweep, "update_chain": _test_update_chain,
               "pairwise_dot": _test_pairwise_dot,
               "evp_march": _test_evp_march, "evp_edges": _test_evp_edges,
               "chebyshev_span": _test_chebyshev_span,
               "evp_gather": _test_evp_gather, "evp_scatter": _test_evp_scatter,
               "chrongear_span": _test_chrongear_span,
               "evp_step": _test_evp_step}
