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
caller (:class:`~repro.kernels.fused.FusedKernels`) on its numpy/scipy
code, and :attr:`Native.status` says which.
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
    "dia_sweep": (None, (_I, _I, _P, _I, _P, _P, _P)),
    "update_chain": (None, (_I, _I, _P)),
    "pairwise_dot": (ctypes.c_double, (_P, _P, _P, _I)),
    "evp_march": (None, (_I, _P, _P, _P, _P, _P)),
    "evp_edges": (None, (_I, _I, _I, _P, _P, _P, _P, _P, _P)),
}
#: ``struct`` format of one ``update_chain`` step: kind, a, b, x, y.
STEP_FORMAT = "qddPP"


def address(array):
    """Address of a writable C-contiguous array's first element (a
    third of the cost of ``array.ctypes.data``; raises on any other
    array).  The caller keeps ``array`` alive across the native call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))


class Native:
    """What :func:`load` found: ``status`` (``<path> loaded``, ``no
    compiler``, ``build failed: ...``, ``self-test failed: <entry
    points>``, ``not used``) and one attribute per entry point -- the
    ``ctypes`` function, or ``None`` where it was not adopted."""

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
    for n in (7, 150, 1031):
        data, x, y = rng.standard_normal((9, n)), rng.standard_normal(n), np.empty(n)
        offsets = np.array([0, 12, -12, 1, -1, 13, 11, -11, -13], dtype=np.int64)
        fn(n, 9, address(data), n, address(offsets), address(x), address(y))
        if not np.array_equal(y, dia_array((data, offsets), shape=(n, n)) @ x):
            return False
    return True


def _test_update_chain(fn, rng):
    n = 2500
    s, p, x, r, z, q = rng.standard_normal((6, n))
    got = [v.copy() for v in (s, p, x, r)]
    steps = [(1, 0.0, 0.3, z, got[0]), (2, 0.7, -1.1, q, got[1]),
             (0, 0.9, 0.0, got[0], got[2]), (0, -0.9, 0.0, got[1], got[3])]
    fn(n, 4, struct.pack(STEP_FORMAT * 4, *(
        v if i < 3 else address(v) for step in steps for i, v in enumerate(step))))
    s, p = z + 0.3 * s, -1.1 * p + 0.7 * q
    return all(np.array_equal(a, b) for a, b in
               zip(got, (s, p, x + 0.9 * s, r + -0.9 * p)))


def _test_pairwise_dot(fn, rng):
    for n in (1, 7, 8, 9, 127, 128, 129, 300, 1000, 17280, 30720):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        b, w = rng.standard_normal(n), rng.integers(0, 2, n).astype(float)
        if fn(address(a), address(b), address(w), n) != float(np.sum(a * b * w)):
            return False
    return True


def _test_evp_march(fn, rng):
    """Steps of 4, 5 and 8 terms (every grouping of the term loop),
    longer than a chunk, the later ones reading the earlier targets."""
    m = 1100
    state, coef = rng.standard_normal(12 * m), rng.standard_normal(8 * m)
    rhs, inv = rng.standard_normal((2, 3 * m))
    ref, prog = state.copy(), []
    for step, nterms in enumerate((4, 5, 8)):
        row, target = step * m, (9 + step) * m
        cur = rhs[row:row + m]
        prog += [m, row, target, nterms]
        for t in range(nterms):
            src = (8 + step - t) % (9 + step) * m
            cur = cur - coef[t * m:(t + 1) * m] * ref[src:src + m]
            prog += [t * m, src]
        ref[target:target + m] = cur * inv[row:row + m]
    prog = np.array(prog, dtype=np.int64)
    fn(3, address(prog), address(coef), address(inv), address(rhs),
       address(state))
    return np.array_equal(state, ref)


def _test_evp_edges(fn, rng):
    k, bn, nterms = 3, 1100, 9
    coef = rng.standard_normal((nterms, k, bn))
    state, rhs = rng.standard_normal((6, bn)), rng.standard_normal((k, bn))
    rows = rng.integers(0, 6, (nterms, k))
    offsets = np.arange(nterms, dtype=np.int64) * k * bn
    ref, f = -rhs, np.empty((k, bn))
    for t in range(nterms):
        ref = ref + coef[t] * state[rows[t]]
    fn(k, bn, nterms, address(offsets), address(rows), address(coef),
       address(rhs), address(state), address(f))
    return np.array_equal(f, ref)


_SELF_TESTS = {"dia_sweep": _test_dia_sweep, "update_chain": _test_update_chain,
               "pairwise_dot": _test_pairwise_dot,
               "evp_march": _test_evp_march, "evp_edges": _test_evp_edges}
