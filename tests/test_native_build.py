"""``native.c`` is an accelerator over the numpy reference: failure to
build, load or verify it is quiet, visible, and changes no result.
Verifying is :mod:`repro.kernels.selftest`: each entry point against the
same public calls made without it.

Every scenario runs ``resolve_kernels(None)`` in a fresh interpreter (the
library is resolved once per process) with its own cache home: the
ChronGear + EVP solves it makes -- one serial, one of 8 right-hand
sides on the batched engine's stacks, each iteration two ``evp_step``
calls where the library's sweep, EVP march and edges and ``evp_step``
were adopted and otherwise the primitive calls (the sweep in its
single- and multi-vector forms, the update chain with scalar and
per-column coefficients, the dot of one vector and of stack windows,
the EVP march, edge residuals, gather and masked scatter), which the
script checks by the span lengths -- must equal the numpy oracle's bit
for bit, and so must a width-8 EVP apply on the
strided interior of a stack, 2-column serial P-CSI and ChronGear +
diagonal solves (their spans) and P-CSI + EVP solves, serial and on
the stacks (one call an iteration); none may emit a warning or
anything on stderr, and
``describe()`` / ``native_status()`` must name what happened.
"""

import collections
import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.cache import ArtifactCache, get_cache, set_cache
from repro.kernels import fused, native, resolve_kernels
from repro.kernels.native import load as load_native
from repro.service.server import SolverService

SRC = Path(__file__).resolve().parent.parent / "src"
COMPILER = shutil.which("cc") or shutil.which("gcc")
needs_compiler = pytest.mark.skipif(
    COMPILER is None, reason="native kernels: no compiler")

SCRIPT = """
import warnings
import numpy as np
{prelude}
from repro.grid import test_config
from repro.kernels import resolve_kernels
from repro.kernels.native import load
from repro.operators import apply_stencil
from repro.parallel import VirtualMachine, decompose
from repro.precond.diagonal import DiagonalPreconditioner
from repro.precond.evp import evp_for_config
from repro.solvers import DistributedContext, SerialContext, make_solver

config = test_config(24, 32, seed=3)
rng = np.random.default_rng(1)
b = np.stack([apply_stencil(config.stencil, rng.standard_normal(config.shape)
                            * config.mask, kernels="numpy")
              for _ in range(8)], axis=-1)
decomp = decompose(24, 32, 2, 2, mask=config.mask)

def solve(kernels, stacked):
    pre = evp_for_config(config, tile_size=6, kernels=kernels,
                         decomp=decomp if stacked else None)
    if stacked:
        vm = VirtualMachine(decomp, mask=config.mask)
        vm.kernels = resolve_kernels(kernels)
        ctx = DistributedContext(config.stencil, pre, vm, kernels=kernels)
    else:
        ctx = SerialContext(config.stencil, pre, kernels=kernels)
    solver = make_solver("chrongear", ctx, tol=1e-10)
    spans, plain = set(), solver._iterate_span
    solver._iterate_span = lambda state, first, n: (
        spans.add(n), plain(state, first, n))
    result = solver.solve(b if stacked else np.ascontiguousarray(b[..., 0]))
    # ChronGear + EVP spans up to each check where its entry points were
    # adopted, else runs one iteration a call
    lib = load()
    spanned = kernels is None and all(getattr(lib, name) for name in (
        "evp_step", "dia_sweep", "evp_march", "evp_edges"))
    assert spans == ({{solver.check_freq}} if spanned else {{1}}), spans
    return result

def diagonal(name, kernels):
    pre = DiagonalPreconditioner(config.stencil, kernels=kernels)
    ctx = SerialContext(config.stencil, pre, kernels=kernels)
    return make_solver(name, ctx, tol=1e-10).solve(
        np.ascontiguousarray(b[..., :2]))

def evp_pcsi(kernels, stacked):
    pre = evp_for_config(config, tile_size=6, kernels=kernels,
                         decomp=decomp if stacked else None)
    if stacked:
        vm = VirtualMachine(decomp, mask=config.mask)
        ctx = DistributedContext(config.stencil, pre, vm, kernels=kernels)
    else:
        ctx = SerialContext(config.stencil, pre, kernels=kernels)
    return make_solver("pcsi", ctx, tol=1e-10).solve(
        np.ascontiguousarray(b[..., :2]))

def stacked_apply(kernels):
    pre = evp_for_config(config, tile_size=6, kernels=kernels, decomp=decomp)
    vm = VirtualMachine(decomp, mask=config.mask)
    r, out = vm.zeros(nrhs=8), vm.zeros(nrhs=8)
    r.interior_stack()[...] = np.random.default_rng(2).standard_normal(
        r.interior_stack().shape)
    pre.apply_stack(r.interior_stack(), out=out.interior_stack())
    return out.stack

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    kernels = resolve_kernels(None)
    pairs = [(solve("numpy", stacked), solve(None, stacked))
             for stacked in (False, True)]
    pairs += [(diagonal(name, "numpy"), diagonal(name, None))
              for name in ("pcsi", "chrongear")]
    pairs += [(evp_pcsi("numpy", stacked), evp_pcsi(None, stacked))
              for stacked in (False, True)]
    applies = [stacked_apply(k) for k in ("numpy", None)]
assert not caught, [str(w.message) for w in caught]
assert np.array_equal(*applies)
for ref, got in pairs:
    assert got.converged and ref.iterations == got.iterations
    assert np.array_equal(ref.x, got.x)
    assert np.array_equal(ref.residual_history, got.residual_history)
    assert ref.events == got.events
print(kernels.describe())
print(kernels.native_status())
"""


def _start(cache_home, path=None, prelude=""):
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache_home))
    if path is not None:
        env["PATH"] = str(path)
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT.format(prelude=prelude)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0 and not err, err
    describe, status = out.strip().split("\n")
    return describe, status


def _run(*args, **kwargs):
    return _finish(_start(*args, **kwargs))


def _libraries(cache_home):
    return sorted((Path(cache_home) / "repro-kernels").glob("*"))


def test_no_compiler_on_path(tmp_path):
    empty = tmp_path / "bin"
    empty.mkdir()
    describe, status = _run(tmp_path / "cache", path=empty)
    assert describe == "fused (bit-identical)"
    assert status == "no compiler"
    assert not (tmp_path / "cache").exists()


def test_compiler_that_fails(tmp_path):
    stub_dir = tmp_path / "bin"
    stub_dir.mkdir()
    stub = stub_dir / "cc"
    stub.write_text("#!/bin/sh\necho 'cc: stub says no' >&2\n"
                    "echo 'second line' >&2\nexit 1\n")
    stub.chmod(0o755)
    describe, status = _run(tmp_path / "cache", path=stub_dir)
    assert describe == "fused (bit-identical)"
    assert status == "build failed: cc: stub says no"


@needs_compiler
def test_unwritable_cache_home(tmp_path):
    # A file where the cache home should be: not creatable by any user
    # (permission bits would not stop root).
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    describe, status = _run(blocker)
    assert describe == "fused (bit-identical)"
    assert status.startswith("build failed: ") and "cache" in status


@needs_compiler
def test_builds_once_then_loads_and_rebuilds_a_truncated_library(tmp_path):
    cache = tmp_path / "cache"
    describe, status = _run(cache)
    (library,) = _libraries(cache)
    assert describe == "fused+native (bit-identical)"
    assert status == f"{library} loaded"
    assert library.parent.stat().st_mode & 0o777 == 0o700
    built = library.stat().st_mtime_ns

    # A second process loads the cached file without rebuilding it.
    # (Not without a compiler: the name digests ``cc --version``.)
    assert _run(cache) == (describe, status)
    assert library.stat().st_mtime_ns == built
    empty = tmp_path / "bin"
    empty.mkdir()
    assert _run(cache, path=empty)[1] == "no compiler"

    # Damage is repaired, not trusted.
    library.write_bytes(library.read_bytes()[:1000])
    assert _run(cache) == (describe, status)
    assert _libraries(cache) == [library]
    ctypes.CDLL(str(library))


@pytest.fixture(scope="module")
def built_cache(tmp_path_factory):
    """A cache home holding the library, built once for the module."""
    cache = tmp_path_factory.mktemp("built") / "cache"
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache))
    subprocess.run([sys.executable, "-c",
                    "from repro.kernels.native import load; load()"],
                   env=env, check=True)
    return cache


@needs_compiler
@pytest.mark.parametrize("failed", ["dia_sweep", "update_chain",
                                    "pairwise_dot", "chebyshev_span",
                                    "evp_gather", "evp_scatter",
                                    "evp_march", "evp_edges",
                                    "chrongear_span", "evp_step"])
def test_failed_self_test_drops_one_entry_point_only(tmp_path, failed,
                                                     built_cache):
    """Each of the entry points the stacks share with the serial
    vectors, the serial P-CSI and ChronGear spans, each EVP entry point
    and the EVP step failing alone: each loop goes to the reference
    (P-CSI and ChronGear to one iteration a call, the EVP march and
    edges to the engine's own sweep, the EVP boundary to takes and the
    mask multiply, the P-CSI + EVP and ChronGear + EVP iterations and
    the stacked halo copy to the primitive calls -- one iteration a
    call, as the script checks -- and fancy indexing), the others stay
    adopted, every solve and the stacked width-8 apply keep their
    bits.  (Each case loads a copy of one build.)"""
    shutil.copytree(built_cache, tmp_path / "cache")
    prelude = ("from repro.kernels import native\n"
               f"native._SELF_TESTS['{failed}'] = lambda fn, rng: False\n")
    describe, status = _run(tmp_path / "cache", prelude=prelude)
    assert describe == "fused+native (bit-identical)"
    assert status == f"self-test failed: {failed}"
    report = ("lib = native.load()\n"
              "print([n for n in native._SIGNATURES if getattr(lib, n)])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC),
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    out = subprocess.run([sys.executable, "-c", prelude + report], env=env,
                         capture_output=True, text=True, check=True).stdout
    adopted = ["dia_sweep", "update_chain", "pairwise_dot", "evp_march",
               "evp_edges", "chebyshev_span", "evp_gather", "evp_scatter",
               "chrongear_span", "evp_step"]
    adopted.remove(failed)
    assert out.strip() == str(adopted)


@needs_compiler
def test_check_rejects_a_one_ulp_nudge(monkeypatch):
    """The load-time check accepts a Python stand-in for an entry point
    that calls it, and rejects one that then moves one output value by
    one ulp -- ``dia_sweep``'s ``y``, ``pairwise_dot``'s return value,
    ``evp_gather``'s ``y``; ``load()`` runs each entry point's check
    once, and nothing the checks build reaches back into ``load()``."""
    lib = load_native()
    functions = {name: getattr(lib, name) for name in native._SIGNATURES}
    if None in functions.values():
        pytest.skip(f"native kernels: {lib.status}")

    def stand_in(name, out, nudge):
        """``name``'s function, then (``nudge``) its output one ulp up:
        the first double of argument ``out``, or the return value."""
        real = functions[name]

        def call(*args):
            value = real(*args)
            if nudge and out is None:
                return np.nextafter(value, np.inf)
            if nudge:
                cell = ctypes.c_double.from_address(args[out])
                cell.value = np.nextafter(cell.value, np.inf)
            return value
        return call

    for name, out in (("dia_sweep", 7), ("pairwise_dot", None),
                      ("evp_gather", 3)):
        check = native._SELF_TESTS[name]
        assert check(stand_in(name, out, False), functions), name
        assert not check(stand_in(name, out, True), functions), name

    runs = collections.Counter()

    def counted(name, check):
        def run(fn, functions):
            runs[name] += 1
            return check(fn, functions)
        return run

    for name, check in list(native._SELF_TESTS.items()):
        monkeypatch.setitem(native._SELF_TESTS, name, counted(name, check))
    reentries = []
    monkeypatch.setattr(fused, "load", lambda: reentries.append(1))
    monkeypatch.setattr(resolve_kernels(None), "_lib", None)
    assert native.load.__wrapped__().status == lib.status
    assert runs == collections.Counter(list(native._SIGNATURES))
    assert not reentries


#: Two threads make the process's first ``load()`` at once.
TWO_THREADS = """
import threading
from repro.kernels.native import load
gate, got = threading.Barrier(2), []

def first():
    gate.wait()
    got.append(load())

threads = [threading.Thread(target=first) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
assert got[0] is got[1], [lib.status for lib in got]
print(got[0].status)
"""


@needs_compiler
def test_two_threads_first_load_share_one_library(tmp_path):
    """Two threads of one process released together by a barrier into
    the first ``load()``, on a fresh cache home: one builds and checks
    while the other waits, both get the one loaded library (the same
    object), and no temp file is left."""
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache))
    proc = subprocess.run([sys.executable, "-c", TWO_THREADS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    (library,) = _libraries(cache)
    assert proc.stdout.strip() == f"{library} loaded"


@needs_compiler
def test_concurrent_builders_install_one_intact_library(tmp_path):
    cache = tmp_path / "cache"
    results = [_finish(proc) for proc in [_start(cache) for _ in range(3)]]
    (library,) = _libraries(cache)   # one file, no temp names left
    assert results == [("fused+native (bit-identical)",
                        f"{library} loaded")] * 3
    ctypes.CDLL(str(library))


def test_cache_stats_and_healthz_say_which(tmp_path, capsys):
    kernels = resolve_kernels(None)
    assert kernels.native_status() == load_native().status
    assert kernels.describe() == (
        "fused+native (bit-identical)" if load_native().loaded
        else "fused (bit-identical)")

    assert cli_main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == f"native kernels: {kernels.native_status()}"

    saved = get_cache()
    set_cache(ArtifactCache(cache_dir=None))
    try:
        assert SolverService(jobs=0).health()["kernels"] == kernels.describe()
    finally:
        set_cache(saved)
